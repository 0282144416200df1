// Tests for the racing metaheuristic portfolio (opt/portfolio.hpp) and the
// SearchDriver proposal-batch interface beneath it: serial-vs-parallel
// bit-identity at several thread counts, kill-and-resume through the shared
// EvalCache journal, deterministic strategy elimination, and the contract
// that the portfolio's hybrid lane matches the standalone hybrid search.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

#include "core/parallel.hpp"
#include "core/run_budget.hpp"
#include "opt/portfolio.hpp"

using namespace catsched;
using namespace catsched::opt;

namespace {

/// Quadratic bowl over integers, optimum at (3, 2, 3) — the same synthetic
/// landscape the hybrid-search tests climb (tests/test_opt.cpp).
EvalOutcome bowl(const std::vector<int>& m) {
  double v = 1.0;
  const int target[3] = {3, 2, 3};
  for (std::size_t i = 0; i < m.size(); ++i) {
    v -= 0.05 * (m[i] - target[i]) * (m[i] - target[i]);
  }
  return EvalOutcome{v, true};
}

bool cheap_box(const std::vector<int>& m) {
  int sum = 0;
  for (int v : m) sum += v;
  return sum <= 14;  // downward-closed
}

/// A rougher multi-modal landscape: two basins, the better one away from
/// the low corner, infeasible ridge between them — exercises strategies
/// disagreeing long enough for elimination to fire.
EvalOutcome two_basins(const std::vector<int>& m) {
  const auto bump = [&](int a, int b, double h, double w) {
    double v = h;
    v -= w * (m[0] - a) * (m[0] - a);
    v -= w * (m[1] - b) * (m[1] - b);
    return v;
  };
  const double v = std::max(bump(2, 2, 0.6, 0.05), bump(6, 5, 0.9, 0.04));
  const bool feasible = !(m[0] == 4 && m[1] == 4);
  return EvalOutcome{v, feasible};
}

bool cheap_wide(const std::vector<int>& m) {
  int sum = 0;
  for (int v : m) sum += v;
  return sum <= 16;
}

PortfolioOptions small_opts() {
  PortfolioOptions o;
  o.max_value = 8;
  o.max_rounds = 40;
  o.anneal.iterations = 48;
  o.anneal.batch = 6;
  o.genetic.population = 8;
  o.genetic.generations = 6;
  return o;
}

const std::vector<std::vector<int>> kStarts{{1, 1, 1}, {4, 2, 2}};

struct Fingerprint {
  std::vector<int> best;
  double best_value;
  std::string winner;
  int rounds;
  int unique_evaluations;
  std::vector<std::string> eliminated;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint(const PortfolioResult& r) {
  Fingerprint f{r.best, r.best_value, r.winner, r.rounds,
                r.unique_evaluations, {}};
  for (const StrategyReport& s : r.strategies) {
    if (s.eliminated) f.eliminated.push_back(s.name);
  }
  return f;
}

class TempCheckpoint {
 public:
  explicit TempCheckpoint(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("catsched_portfolio_" + tag + ".snap"))
                  .string()) {
    cleanup();
  }
  ~TempCheckpoint() { cleanup(); }
  const std::string& str() const { return path_; }

 private:
  void cleanup() {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
    std::filesystem::remove(path_ + ".tmp", ec);
    std::filesystem::remove(path_ + ".prev", ec);
  }
  std::string path_;
};

}  // namespace

TEST(Portfolio, FindsTheOptimumOnTheBowl) {
  const auto res = portfolio_search(bowl, cheap_box, kStarts, small_opts());
  EXPECT_TRUE(res.found_feasible);
  EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3}));
  EXPECT_FALSE(res.winner.empty());
  EXPECT_GT(res.rounds, 0);
  EXPECT_GT(res.new_evaluations, 0);
  EXPECT_EQ(res.new_evaluations, res.unique_evaluations);
  EXPECT_EQ(res.strategies.size(), kStarts.size() + 4);  // + beam/pat/sa/ga
  // Every miss is charged to exactly one strategy.
  int charged = 0;
  for (const StrategyReport& s : res.strategies) charged += s.new_evaluations;
  EXPECT_EQ(charged, res.new_evaluations);
  EXPECT_EQ(res.history.size(), static_cast<std::size_t>(res.rounds));
  // The history's unique-evaluation column is the cache size after each
  // round: non-decreasing, ending at the final total.
  for (std::size_t i = 1; i < res.history.size(); ++i) {
    EXPECT_GE(res.history[i].unique_evaluations,
              res.history[i - 1].unique_evaluations);
  }
  EXPECT_EQ(res.history.back().unique_evaluations, res.unique_evaluations);
}

TEST(Portfolio, BitIdenticalAcrossThreadCounts) {
  const auto serial =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, small_opts());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    core::ThreadPool pool(threads);
    const auto parallel = portfolio_search(two_basins, cheap_wide,
                                           {{1, 1}, {5, 4}}, small_opts(),
                                           &pool);
    EXPECT_EQ(fingerprint(serial), fingerprint(parallel))
        << "threads = " << threads;
    ASSERT_EQ(serial.history.size(), parallel.history.size());
    for (std::size_t i = 0; i < serial.history.size(); ++i) {
      EXPECT_EQ(serial.history[i].incumbent_value,
                parallel.history[i].incumbent_value);
      EXPECT_EQ(serial.history[i].unique_evaluations,
                parallel.history[i].unique_evaluations);
    }
  }
}

TEST(Portfolio, HybridLaneMatchesStandaloneHybridSearch) {
  // With elimination off the hybrid lane runs to self-convergence; its
  // walk replicates hybrid_search decision-for-decision, so its lane best
  // equals the standalone result and the portfolio can only add to it.
  PortfolioOptions opts = small_opts();
  opts.elimination_rounds = 0;
  const auto res = portfolio_search(bowl, cheap_box, kStarts, opts);

  HybridOptions hopts;
  hopts.max_value = opts.max_value;
  hopts.max_steps = opts.hybrid_max_steps;
  for (std::size_t i = 0; i < kStarts.size(); ++i) {
    EvalCache cache(bowl);
    const auto solo = hybrid_search(cache, cheap_box, kStarts[i], hopts);
    const StrategyReport& lane = res.strategies[i];
    EXPECT_EQ(lane.name, "hybrid:" + std::to_string(i));
    EXPECT_EQ(lane.found_feasible, solo.found_feasible);
    EXPECT_EQ(lane.best, solo.best);
    EXPECT_EQ(lane.best_value, solo.best_value);
    EXPECT_GE(res.best_value, solo.best_value);
  }
}

TEST(Portfolio, EliminationIsDeterministicAndSparesTheIncumbent) {
  PortfolioOptions opts = small_opts();
  opts.elimination_rounds = 2;  // aggressive: force retirements
  const auto a =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {6, 5}}, opts);
  const auto b =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {6, 5}}, opts);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // The winner (incumbent holder) can never be retired by the race.
  for (const StrategyReport& s : a.strategies) {
    if (s.name == a.winner) {
      EXPECT_FALSE(s.eliminated);
    }
  }
  // With a start pinned on the better basin's peak the race has a clear
  // incumbent; something must trail it for 2 consecutive rounds.
  bool any_eliminated = false;
  for (const StrategyReport& s : a.strategies) {
    any_eliminated = any_eliminated || s.eliminated;
  }
  EXPECT_TRUE(any_eliminated);
}

TEST(Portfolio, EvaluationCapStopsWithReason) {
  core::RunBudget budget;
  budget.set_max_evaluations(10);
  PortfolioOptions opts = small_opts();
  opts.anytime.budget = &budget;
  const auto res = portfolio_search(bowl, cheap_box, kStarts, opts);
  EXPECT_EQ(res.telemetry.stop, core::StopReason::evaluation_limit);
  const auto full = portfolio_search(bowl, cheap_box, kStarts, small_opts());
  EXPECT_LT(res.rounds, full.rounds);

  core::RunBudget dead;
  dead.request_stop();
  PortfolioOptions stopped = small_opts();
  stopped.anytime.budget = &dead;
  const auto none = portfolio_search(bowl, cheap_box, kStarts, stopped);
  EXPECT_EQ(none.telemetry.stop, core::StopReason::stop_requested);
  EXPECT_EQ(none.rounds, 0);
}

TEST(Portfolio, KillAndResumeConvergesToTheUninterruptedResult) {
  TempCheckpoint ck("resume");
  // Reference: uninterrupted, no checkpointing.
  const auto ref =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, small_opts());

  // Run 1: killed by an evaluation cap mid-race, journal on disk.
  {
    core::RunBudget budget;
    budget.set_max_evaluations(12);
    PortfolioOptions opts = small_opts();
    opts.anytime.budget = &budget;
    opts.anytime.checkpoint_path = ck.str();
    opts.anytime.checkpoint_every = 4;
    const auto cut =
        portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, opts);
    EXPECT_EQ(cut.telemetry.stop, core::StopReason::evaluation_limit);
    EXPECT_GT(cut.telemetry.checkpoints_written, 0);
  }

  // Run 2: fresh process image, same inputs, resumes from the journal and
  // replays to the bit-identical uninterrupted result. Replayed points are
  // memo hits — they are not new evaluations, so even a small budget does
  // not re-fire on old ground.
  core::RunBudget budget;
  budget.set_max_evaluations(1000);
  PortfolioOptions opts = small_opts();
  opts.anytime.budget = &budget;
  opts.anytime.checkpoint_path = ck.str();
  opts.anytime.checkpoint_every = 4;
  const auto resumed =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, opts);
  EXPECT_TRUE(resumed.telemetry.resumed);
  EXPECT_EQ(resumed.telemetry.stop, core::StopReason::completed);
  EXPECT_EQ(resumed.best, ref.best);
  EXPECT_EQ(resumed.best_value, ref.best_value);
  EXPECT_EQ(resumed.winner, ref.winner);
  EXPECT_EQ(resumed.rounds, ref.rounds);
  EXPECT_EQ(resumed.unique_evaluations, ref.unique_evaluations);
  // The resumed run only pays for points past the kill: strictly fewer
  // new evaluations than the uninterrupted run's total.
  EXPECT_LT(resumed.new_evaluations, ref.new_evaluations);
  EXPECT_GT(resumed.new_evaluations, 0);
}

TEST(Portfolio, ResumeIsThreadCountInvariantToo) {
  TempCheckpoint ck("resume_mt");
  {
    core::RunBudget budget;
    budget.set_max_evaluations(12);
    PortfolioOptions opts = small_opts();
    opts.anytime.budget = &budget;
    opts.anytime.checkpoint_path = ck.str();
    opts.anytime.checkpoint_every = 4;
    portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, opts);
  }
  PortfolioOptions opts = small_opts();
  opts.anytime.checkpoint_path = ck.str();
  core::ThreadPool pool(4);
  const auto parallel = portfolio_search(two_basins, cheap_wide,
                                         {{1, 1}, {5, 4}}, opts, &pool);
  const auto ref =
      portfolio_search(two_basins, cheap_wide, {{1, 1}, {5, 4}}, small_opts());
  EXPECT_TRUE(parallel.telemetry.resumed);
  EXPECT_EQ(parallel.best, ref.best);
  EXPECT_EQ(parallel.best_value, ref.best_value);
  EXPECT_EQ(parallel.rounds, ref.rounds);
  EXPECT_EQ(parallel.unique_evaluations, ref.unique_evaluations);
}

TEST(Portfolio, RejectsBadStarts) {
  EXPECT_THROW(portfolio_search(bowl, cheap_box, {}, small_opts()),
               std::invalid_argument);
  EXPECT_THROW(portfolio_search(bowl, cheap_box, {{9, 9, 9}}, small_opts()),
               std::invalid_argument);
}

// ------------------------------------------------- individual drivers

namespace {

/// Race one driver alone to self-convergence on a fresh cache.
PortfolioResult race_alone(std::unique_ptr<SearchDriver> drv,
                           const DiscreteObjective& objective) {
  std::vector<std::unique_ptr<SearchDriver>> roster;
  roster.push_back(std::move(drv));
  EvalCache cache(objective);
  return race(roster, cache, 1000, 0, nullptr, nullptr);
}

}  // namespace

TEST(SearchDriver, PatternDriverContractsToTheOptimum) {
  const auto res = race_alone(
      make_pattern_driver("pattern", cheap_box, {1, 1, 1},
                          PatternDriverOptions{4, 1, 8}),
      bowl);
  EXPECT_TRUE(res.found_feasible);
  EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3}));
}

TEST(SearchDriver, StochasticDriversAreSeedDeterministic) {
  const auto run = [&](auto&& make) {
    auto drv = make();
    EvalCache cache(two_basins);
    std::vector<std::vector<std::vector<int>>> proposals;
    while (!drv->finished()) {
      const auto batch = drv->propose_batch();
      if (batch.empty()) break;
      proposals.push_back(batch);
      std::vector<const EvalOutcome*> outs;
      outs.reserve(batch.size());
      for (const auto& p : batch) outs.push_back(&cache.evaluate(p));
      drv->observe(batch, outs);
    }
    return proposals;
  };
  AnnealDriverOptions sa;
  sa.iterations = 24;
  sa.max_value = 8;
  sa.seed = 7;
  const auto a = run([&] {
    return make_anneal_driver("sa", cheap_wide, {2, 2}, sa);
  });
  const auto b = run([&] {
    return make_anneal_driver("sa", cheap_wide, {2, 2}, sa);
  });
  EXPECT_EQ(a, b);

  GeneticDriverOptions ga;
  ga.population = 6;
  ga.generations = 4;
  ga.max_value = 8;
  ga.seed = 7;
  const auto c = run([&] {
    return make_genetic_driver("ga", cheap_wide, 2, ga);
  });
  const auto d = run([&] {
    return make_genetic_driver("ga", cheap_wide, 2, ga);
  });
  EXPECT_EQ(c, d);
}
