#include "opt/discrete_search.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "opt/portfolio.hpp"

namespace catsched::opt {

std::vector<std::uint8_t> encode_evaluation_table(const EvaluationTable& table) {
  core::SnapshotWriter w;
  w.put_u64(table.size());
  for (const auto& [point, out] : table) {
    w.put_int_vector(point);
    w.put_f64(out.value);
    w.put_u8(out.feasible ? 1 : 0);
  }
  return w.take();
}

EvaluationTable decode_evaluation_table(
    const std::vector<std::uint8_t>& payload) {
  core::SnapshotReader r(payload);
  // Smallest entry: empty point (8-byte count) + value + feasibility flag.
  const std::uint64_t count = r.get_count(8 + 8 + 1);
  EvaluationTable table;
  table.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::vector<int> point = r.get_int_vector();
    EvalOutcome out;
    out.value = r.get_f64();
    out.feasible = r.get_u8() != 0;
    table.emplace_back(std::move(point), out);
  }
  return table;
}

const EvalOutcome& EvalCache::evaluate(const std::vector<int>& p,
                                       std::atomic<int>* misses) {
  bool computed = false;
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    computed = true;
    return objective_(p);
  });
  if (computed) {
    if (misses != nullptr) misses->fetch_add(1);
    record(p, out);
  }
  return out;
}

const EvalOutcome& EvalCache::evaluate_neighbor_of(
    const std::vector<int>& base, const std::vector<int>& p,
    std::atomic<int>* misses) {
  if (!neighbor_) return evaluate(p, misses);
  bool computed = false;
  // The neighbor objective is bit-identical to the plain one (its
  // contract), so whichever path wins the memo slot stores the same value.
  const EvalOutcome& out = cache_.get_or_compute(p, [&] {
    computed = true;
    return neighbor_(base, p);
  });
  if (computed) {
    if (misses != nullptr) misses->fetch_add(1);
    record(p, out);
  }
  return out;
}

std::vector<const EvalOutcome*> EvalCache::evaluate_batch(
    const std::vector<const std::vector<int>*>& points, core::ThreadPool* pool,
    std::atomic<int>* misses, const std::vector<int>* base,
    const core::RunBudget* budget) {
  std::vector<const EvalOutcome*> out(points.size(), nullptr);
  core::parallel_for(
      pool, points.size(), 0,
      [&](std::size_t i) {
        out[i] = base != nullptr
                     ? &evaluate_neighbor_of(*base, *points[i], misses)
                     : &evaluate(*points[i], misses);
      },
      budget);
  return out;
}

void EvalCache::enable_checkpoints(std::string path, int every,
                                   core::FaultPlan* fault) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (!path_.empty()) return;  // first configuration wins
  path_ = std::move(path);
  every_ = every < 1 ? 1 : every;
  fault_ = fault;
}

bool EvalCache::try_resume(bool* used_fallback) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(journal_mu_);
    path = path_;
  }
  if (path.empty() || !core::snapshot_exists(path)) {
    if (used_fallback != nullptr) *used_fallback = false;
    return false;
  }
  const std::vector<std::uint8_t> payload = core::load_snapshot_file(
      path, core::kSnapshotKindEvaluationTable, used_fallback);
  preload(decode_evaluation_table(payload));
  return true;
}

void EvalCache::preload(const EvaluationTable& table) {
  for (const auto& [point, outcome] : table) {
    bool inserted = false;
    cache_.get_or_compute(point, [&] {
      inserted = true;
      return outcome;
    });
    if (inserted) {
      std::lock_guard<std::mutex> lock(journal_mu_);
      journal_.emplace_back(point, outcome);
      // Preloaded entries count as already saved — they came from disk.
      ++last_saved_;
    }
  }
}

void EvalCache::record(const std::vector<int>& p, const EvalOutcome& out) {
  std::lock_guard<std::mutex> lock(journal_mu_);
  journal_.emplace_back(p, out);
  if (!path_.empty() && journal_.size() - last_saved_ >=
                            static_cast<std::size_t>(every_)) {
    save_locked();
  }
}

void EvalCache::save_locked() {
  core::write_snapshot_file(path_, core::kSnapshotKindEvaluationTable,
                            encode_evaluation_table(journal_), fault_);
  last_saved_ = journal_.size();
  ++writes_;
}

void EvalCache::save_checkpoint() {
  std::lock_guard<std::mutex> lock(journal_mu_);
  if (path_.empty() || journal_.size() == last_saved_) return;
  save_locked();
}

int EvalCache::checkpoints_written() const {
  std::lock_guard<std::mutex> lock(journal_mu_);
  return writes_;
}

namespace {

/// One hybrid lane's outcome in HybridResult form.
HybridResult lane_result(const HybridDriver& lane, const StrategyReport& rep,
                         core::StopReason stop) {
  HybridResult r;
  r.best = lane.best();
  r.best_value = lane.best_value();
  r.found_feasible = lane.found_feasible();
  r.steps = lane.steps();
  r.new_evaluations = rep.new_evaluations;
  r.path = lane.path();
  r.telemetry.stop = stop;
  return r;
}

}  // namespace

HybridResult hybrid_search(EvalCache& cache, const CheapFeasible& cheap,
                           const std::vector<int>& start,
                           const HybridOptions& opts, core::ThreadPool* pool) {
  std::vector<std::unique_ptr<SearchDriver>> lane;
  lane.push_back(std::make_unique<HybridDriver>("hybrid", cheap, start, opts));
  // Round 0 evaluates the start, round k the neighborhood of step k.
  const PortfolioResult res = race(lane, cache, opts.max_steps + 1, 0,
                                   opts.anytime.budget, pool);
  return lane_result(static_cast<const HybridDriver&>(*lane.front()),
                     res.strategies.front(), res.telemetry.stop);
}

MultiStartResult hybrid_search_multistart(
    const DiscreteObjective& objective, const CheapFeasible& cheap,
    const std::vector<std::vector<int>>& starts, const HybridOptions& opts,
    core::ThreadPool* pool, const NeighborObjective& neighbor) {
  std::vector<std::unique_ptr<SearchDriver>> lanes;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    lanes.push_back(std::make_unique<HybridDriver>(
        "hybrid:" + std::to_string(i), cheap, starts[i], opts));
  }
  EvalCache cache(objective, neighbor);
  MultiStartResult res;
  if (!opts.anytime.checkpoint_path.empty()) {
    cache.enable_checkpoints(opts.anytime.checkpoint_path,
                             opts.anytime.checkpoint_every, opts.anytime.fault);
    // Resume-by-replay: preload the table and rerun every start — memo
    // hits fast-forward each lane to where the previous process died, so
    // the final combined result (and the unique-evaluation total) is
    // bit-identical to an uninterrupted run. Only the per-run
    // `new_evaluations` split shifts (preloaded points cost nobody).
    res.telemetry.resumed = cache.try_resume(&res.telemetry.used_fallback);
  }
  const PortfolioResult race_res = race(lanes, cache, opts.max_steps + 1, 0,
                                        opts.anytime.budget, pool);
  // Deterministic reduction: combine in start order.
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    res.runs.push_back(
        lane_result(static_cast<const HybridDriver&>(*lanes[i]),
                    race_res.strategies[i], race_res.telemetry.stop));
    const HybridResult& r = res.runs.back();
    if (r.found_feasible &&
        (!res.combined.found_feasible ||
         r.best_value > res.combined.best_value)) {
      res.combined = r;
    }
  }
  if (opts.anytime.budget != nullptr && opts.anytime.budget->cancelled()) {
    res.telemetry.stop = opts.anytime.budget->reason();
    res.combined.telemetry.stop = res.telemetry.stop;
  }
  cache.save_checkpoint();
  res.telemetry.checkpoints_written = cache.checkpoints_written();
  res.unique_evaluations = cache.unique_evaluations();
  return res;
}

namespace {

void scan_rec(const CheapFeasible& cheap, int lo, int hi,
              std::vector<int>& p, std::size_t dim, bool& hit_boundary,
              std::vector<std::vector<int>>& out) {
  if (dim == p.size()) {
    if (cheap(p)) {
      out.push_back(p);
      for (int v : p) {
        if (v == hi) hit_boundary = true;
      }
    }
    return;
  }
  for (int v = lo; v <= hi; ++v) {
    p[dim] = v;
    scan_rec(cheap, lo, hi, p, dim + 1, hit_boundary, out);
  }
  p[dim] = lo;
}

}  // namespace

std::vector<std::vector<int>> enumerate_feasible(const CheapFeasible& cheap,
                                                 std::size_t dims,
                                                 const HybridOptions& opts) {
  if (dims == 0) {
    throw std::invalid_argument("enumerate_feasible: dims == 0");
  }
  // The cache-aware feasible region is NOT downward-closed: raising m_i
  // from 1 to 2 swaps app i's idle-gap task from the cold to the warm WCET
  // and can make an infeasible point feasible (e.g. (2,6,1) infeasible but
  // (2,6,2) feasible in the DATE'18 case study). We therefore scan a
  // rectangle exactly, growing its side until no feasible point touches the
  // boundary (monotonicity *does* hold far from 1: for m_i >= 2 the app's
  // own h_max is constant in m_i while everyone else's grows).
  int hi = std::min(opts.max_value, std::max(opts.min_value + 7, 8));
  while (true) {
    std::vector<int> p(dims, opts.min_value);
    std::vector<std::vector<int>> out;
    bool hit_boundary = false;
    scan_rec(cheap, opts.min_value, hi, p, 0, hit_boundary, out);
    if (!hit_boundary || hi >= opts.max_value) return out;
    hi = std::min(opts.max_value, hi * 2);
  }
}

ExhaustiveResult exhaustive_search(const DiscreteObjective& objective,
                                   const CheapFeasible& cheap,
                                   std::size_t dims,
                                   const HybridOptions& opts,
                                   core::ThreadPool* pool) {
  // Enumerate serially (cheap), then evaluate the region in fixed-size
  // blocks through a memo cache: each block is fanned across the pool into
  // index-addressed slots and reduced serially in enumeration order —
  // bit-identical to the serial scan. The block structure is the anytime
  // quantum (budget checked between blocks; a mid-block trip discards the
  // partial block) and the checkpoint cadence rides the cache's journal.
  std::vector<std::vector<int>> region = enumerate_feasible(cheap, dims, opts);
  EvalCache cache(objective);
  ExhaustiveResult res;
  if (!opts.anytime.checkpoint_path.empty()) {
    cache.enable_checkpoints(opts.anytime.checkpoint_path,
                             opts.anytime.checkpoint_every, opts.anytime.fault);
    res.telemetry.resumed = cache.try_resume(&res.telemetry.used_fallback);
  }
  core::RunBudget* budget = opts.anytime.budget;
  constexpr std::size_t kBlock = 256;
  res.all.reserve(region.size());
  for (std::size_t begin = 0; begin < region.size(); begin += kBlock) {
    if (budget != nullptr && budget->cancelled()) {
      res.telemetry.stop = budget->reason();
      break;
    }
    const std::size_t end = std::min(begin + kBlock, region.size());
    std::vector<const std::vector<int>*> batch;
    batch.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) batch.push_back(&region[i]);
    std::atomic<int> misses{0};
    const std::vector<const EvalOutcome*> outcomes =
        cache.evaluate_batch(batch, pool, &misses, nullptr, budget);
    if (budget != nullptr && budget->cancelled()) {
      // Partial block: discard, keep blocks 0..k.
      res.telemetry.stop = budget->reason();
      break;
    }
    if (budget != nullptr) {
      budget->note_evaluations(static_cast<std::uint64_t>(misses.load()));
    }
    for (std::size_t i = begin; i < end; ++i) {
      const EvalOutcome& out = *outcomes[i - begin];
      ++res.enumerated;
      if (out.feasible) {
        ++res.control_feasible;
        if (!res.found_feasible || out.value > res.best_value) {
          res.found_feasible = true;
          res.best_value = out.value;
          res.best = region[i];
        }
      }
      res.all.emplace_back(std::move(region[i]), out);
    }
  }
  cache.save_checkpoint();
  res.telemetry.checkpoints_written = cache.checkpoints_written();
  res.unique_evaluations = cache.unique_evaluations();
  return res;
}

}  // namespace catsched::opt
