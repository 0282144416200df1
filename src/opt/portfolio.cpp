#include "opt/portfolio.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

namespace catsched::opt {

namespace {

/// Fixed roster construction — the strategy ORDER is part of the
/// determinism contract (ties in incumbent updates resolve to the
/// earliest strategy), so build it in one place.
std::vector<std::unique_ptr<SearchDriver>> build_roster(
    const CheapFeasible& cheap, const std::vector<std::vector<int>>& starts,
    const PortfolioOptions& opts) {
  std::vector<std::unique_ptr<SearchDriver>> roster;
  HybridOptions hybrid;
  hybrid.tolerance = opts.tolerance;
  hybrid.max_steps = opts.hybrid_max_steps;
  hybrid.min_value = opts.min_value;
  hybrid.max_value = opts.max_value;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    roster.push_back(std::make_unique<HybridDriver>(
        "hybrid:" + std::to_string(i), cheap, starts[i], hybrid));
  }
  BeamDriverOptions beam;
  beam.tolerance = opts.tolerance;
  beam.min_value = opts.min_value;
  beam.max_value = opts.max_value;
  roster.push_back(make_beam_driver("beam", cheap, starts.front(), beam));
  PatternDriverOptions pattern = opts.pattern;
  pattern.min_value = opts.min_value;
  pattern.max_value = opts.max_value;
  roster.push_back(
      make_pattern_driver("pattern", cheap, starts.front(), pattern));
  AnnealDriverOptions anneal = opts.anneal;
  anneal.min_value = opts.min_value;
  anneal.max_value = opts.max_value;
  anneal.seed = opts.seed + 0x51u;  // decorrelate from the GA stream
  roster.push_back(
      make_anneal_driver("anneal", cheap, starts.front(), anneal));
  GeneticDriverOptions genetic = opts.genetic;
  genetic.min_value = opts.min_value;
  genetic.max_value = opts.max_value;
  genetic.seed = opts.seed + 0x6Au;
  roster.push_back(
      make_genetic_driver("genetic", cheap, starts.front().size(), genetic));
  return roster;
}

}  // namespace

PortfolioResult race(const std::vector<std::unique_ptr<SearchDriver>>& roster,
                     EvalCache& cache, int max_rounds, int elimination_rounds,
                     core::RunBudget* budget, core::ThreadPool* pool) {
  PortfolioResult res;
  // Per-driver memo misses: the cost split, and (summed) the race's charge
  // against the budget.
  std::vector<std::atomic<int>> misses(roster.size());
  int noted = 0;  // misses already charged to the budget
  const auto total_misses = [&] {
    int total = 0;
    for (const std::atomic<int>& m : misses) total += m.load();
    return total;
  };

  // consecutive rounds each driver has trailed the incumbent
  std::vector<int> behind_rounds(roster.size(), 0);
  res.strategies.resize(roster.size());
  std::vector<std::size_t> live;
  live.reserve(roster.size());
  for (std::size_t i = 0; i < roster.size(); ++i) live.push_back(i);

  for (int round = 0; round < max_rounds && !live.empty(); ++round) {
    // Anytime check, quantized to the round boundary.
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    // Propose (serial): an empty batch latches the driver finished; it
    // simply leaves the race.
    struct RoundEntry {
      std::size_t idx;
      std::vector<std::vector<int>> points;
      const std::vector<int>* base;
      std::vector<const EvalOutcome*> outcomes;
    };
    std::vector<RoundEntry> entries;
    entries.reserve(live.size());
    std::vector<std::pair<std::size_t, std::size_t>> slots;  // (entry, k)
    for (const std::size_t idx : live) {
      std::vector<std::vector<int>> batch = roster[idx]->propose_batch();
      if (batch.empty()) continue;
      for (std::size_t k = 0; k < batch.size(); ++k) {
        slots.emplace_back(entries.size(), k);
      }
      std::vector<const EvalOutcome*> outcomes(batch.size(), nullptr);
      entries.push_back(RoundEntry{idx, std::move(batch),
                                   roster[idx]->anchor(),
                                   std::move(outcomes)});
    }
    if (entries.empty()) break;  // everyone converged this round

    // Evaluate: one fan-out over every proposal of the round. A budget
    // trip mid-round discards the whole round (finished evaluations stay
    // in the cache for a resume).
    core::parallel_for(
        pool, slots.size(), 0,
        [&](std::size_t j) {
          RoundEntry& e = entries[slots[j].first];
          const std::vector<int>& p = e.points[slots[j].second];
          std::atomic<int>* charge = &misses[e.idx];
          e.outcomes[slots[j].second] =
              e.base != nullptr
                  ? &cache.evaluate_neighbor_of(*e.base, p, charge)
                  : &cache.evaluate(p, charge);
        },
        budget);
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    // The shared pot: the race is charged for its memo misses only — a
    // resumed run replays at zero budget cost until new ground.
    const int total = total_misses();
    if (budget != nullptr) {
      budget->note_evaluations(static_cast<std::uint64_t>(total - noted));
    }
    noted = total;

    // Observe (serial, fixed order), fold incumbents, retire.
    for (RoundEntry& e : entries) {
      SearchDriver& d = *roster[e.idx];
      d.observe(e.points, e.outcomes);
      ++res.strategies[e.idx].rounds;
      if (d.found_feasible() &&
          (!res.found_feasible || d.best_value() > res.best_value)) {
        res.found_feasible = true;
        res.best_value = d.best_value();
        res.best = d.best();
        res.winner = d.name();
      }
    }
    std::vector<std::size_t> next_live;
    next_live.reserve(live.size());
    for (const std::size_t idx : live) {
      if (roster[idx]->finished()) continue;  // self-converged
      const SearchDriver& d = *roster[idx];
      const bool behind =
          res.found_feasible &&
          (!d.found_feasible() || d.best_value() < res.best_value);
      behind_rounds[idx] = behind ? behind_rounds[idx] + 1 : 0;
      if (elimination_rounds > 0 && behind_rounds[idx] >= elimination_rounds) {
        res.strategies[idx].eliminated = true;  // retired by the race
        continue;
      }
      next_live.push_back(idx);
    }
    live = std::move(next_live);
    ++res.rounds;
    res.history.push_back(PortfolioRound{
        round, static_cast<int>(live.size()), cache.unique_evaluations(),
        res.best_value, res.found_feasible});
  }

  // Misses from a discarded round are still points this race won (they
  // stay in the cache/journal) — they count in the per-run cost split.
  res.new_evaluations = total_misses();
  res.unique_evaluations = cache.unique_evaluations();
  for (std::size_t i = 0; i < roster.size(); ++i) {
    StrategyReport& rep = res.strategies[i];
    rep.name = roster[i]->name();
    rep.best = roster[i]->best();
    rep.best_value = roster[i]->best_value();
    rep.found_feasible = roster[i]->found_feasible();
    rep.proposals = roster[i]->proposals();
    rep.new_evaluations = misses[i].load();
  }
  return res;
}

PortfolioResult race_owned(
    const std::vector<std::unique_ptr<SearchDriver>>& roster,
    const DiscreteObjective& objective, const NeighborObjective& neighbor,
    int max_rounds, int elimination_rounds,
    const core::AnytimeOptions& anytime, core::ThreadPool* pool) {
  EvalCache cache(objective, neighbor);
  bool resumed = false;
  bool used_fallback = false;
  if (!anytime.checkpoint_path.empty()) {
    cache.enable_checkpoints(anytime.checkpoint_path,
                             anytime.checkpoint_every, anytime.fault);
    resumed = cache.try_resume(&used_fallback);
  }
  PortfolioResult res = race(roster, cache, max_rounds, elimination_rounds,
                             anytime.budget, pool);
  res.telemetry.resumed = resumed;
  res.telemetry.used_fallback = used_fallback;
  cache.save_checkpoint();
  res.telemetry.checkpoints_written = cache.checkpoints_written();
  return res;
}

PortfolioResult portfolio_search(const DiscreteObjective& objective,
                                 const CheapFeasible& cheap,
                                 const std::vector<std::vector<int>>& starts,
                                 const PortfolioOptions& opts,
                                 core::ThreadPool* pool,
                                 const NeighborObjective& neighbor) {
  if (starts.empty()) {
    throw std::invalid_argument("portfolio_search: no starts");
  }
  // The roster validates every start (bounds + cheap filter) up front, so
  // a bad input throws before any cache state exists.
  const std::vector<std::unique_ptr<SearchDriver>> roster =
      build_roster(cheap, starts, opts);

  return race_owned(roster, objective, neighbor, opts.max_rounds,
                    opts.elimination_rounds, opts.anytime, pool);
}

}  // namespace catsched::opt
