// Unit tests for the optimizer substrate: PSO, pattern search, the hybrid
// discrete search (paper Sec. IV) and exhaustive enumeration.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "opt/discrete_search.hpp"
#include "opt/pattern_search.hpp"
#include "opt/pso.hpp"

using namespace catsched::opt;

namespace {

double sphere(const std::vector<double>& x, double /*bound*/) {
  double s = 0.0;
  for (double v : x) s += (v - 1.5) * (v - 1.5);
  return s;
}

double rosenbrock(const std::vector<double>& x, double /*bound*/) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    s += 100.0 * std::pow(x[i + 1] - x[i] * x[i], 2) + std::pow(1 - x[i], 2);
  }
  return s;
}

}  // namespace

// ------------------------------------------------------------------- PSO

TEST(Pso, SolvesSphere) {
  PsoOptions opts;
  opts.particles = 30;
  opts.iterations = 120;
  opts.seed = 42;
  const auto res = pso_minimize(sphere, {-5, -5, -5}, {5, 5, 5}, opts);
  EXPECT_LT(res.cost, 1e-4);
  for (double v : res.x) EXPECT_NEAR(v, 1.5, 0.05);
  EXPECT_GT(res.evaluations, 0);
}

TEST(Pso, DeterministicForFixedSeed) {
  PsoOptions opts;
  opts.particles = 20;
  opts.iterations = 30;
  opts.seed = 9;
  const auto a = pso_minimize(rosenbrock, {-2, -2}, {2, 2}, opts);
  const auto b = pso_minimize(rosenbrock, {-2, -2}, {2, 2}, opts);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.x, b.x);
  opts.seed = 10;
  const auto c = pso_minimize(rosenbrock, {-2, -2}, {2, 2}, opts);
  // Different seed almost surely explores differently.
  EXPECT_NE(a.x, c.x);
}

TEST(Pso, SeedsRespectedAndClamped) {
  PsoOptions opts;
  opts.particles = 5;
  opts.iterations = 0;  // only the initial evaluation
  opts.seed = 1;
  // One seed exactly at the optimum: with zero iterations the best must be
  // that seed.
  const auto res =
      pso_minimize(sphere, {-5, -5}, {5, 5}, opts, {{1.5, 1.5}, {9.0, 0.0}});
  EXPECT_LT(res.cost, 1e-20);
  EXPECT_THROW(
      pso_minimize(sphere, {-5, -5}, {5, 5}, opts, {{1.0}}),  // wrong dim
      std::invalid_argument);
}

TEST(Pso, RejectsBadBounds) {
  EXPECT_THROW(pso_minimize(sphere, {}, {}, PsoOptions{}),
               std::invalid_argument);
  EXPECT_THROW(pso_minimize(sphere, {1.0}, {-1.0}, PsoOptions{}),
               std::invalid_argument);
}

// ------------------------------------------------ the objective's bound

namespace {

/// An objective that exploits the bound contract as far as it allows: the
/// exact value below the bound, and otherwise exactly the bound
/// (kAtBound) or +inf (kInfinity). It counts the evaluations it cut.
enum class Cut { kAtBound, kInfinity };

struct Adversary {
  double (*exact)(const std::vector<double>&, double);
  Cut cut;
  int* cuts;

  double operator()(const std::vector<double>& x, double bound) const {
    const double v = exact(x, std::numeric_limits<double>::infinity());
    if (v < bound) return v;
    ++*cuts;
    return cut == Cut::kAtBound ? bound : std::numeric_limits<double>::infinity();
  }
};

void expect_same(const PsoResult& a, const PsoResult& b) {
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cost),
            std::bit_cast<std::uint64_t>(b.cost));
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.iterations_run, b.iterations_run);
}

}  // namespace

// Any objective honouring the contract -- exact below the bound, anything
// at or above it otherwise -- leaves every optimizer output bit-identical,
// serially and through batch_eval.
TEST(ObjectiveBound, PsoOutputsIndependentOfCutValues) {
  for (auto* f : {&sphere, &rosenbrock}) {
    PsoOptions opts;
    opts.particles = 16;
    opts.iterations = 60;
    opts.seed = 77;
    const std::vector<double> lo(3, -2.0);
    const std::vector<double> hi(3, 2.0);
    const PsoResult exact = pso_minimize(f, lo, hi, opts, {{0.5, 0.5, 0.5}});
    for (const Cut cut : {Cut::kAtBound, Cut::kInfinity}) {
      int cuts = 0;
      const Adversary adv{f, cut, &cuts};
      expect_same(exact, pso_minimize(adv, lo, hi, opts, {{0.5, 0.5, 0.5}}));
      PsoOptions batched = opts;
      batched.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                               const std::vector<double>& bounds,
                               std::vector<double>& costs) {
        for (std::size_t i = 0; i < xs.size(); ++i) {
          costs[i] = adv(xs[i], bounds[i]);
        }
      };
      expect_same(exact,
                  pso_minimize(adv, lo, hi, batched, {{0.5, 0.5, 0.5}}));
      EXPECT_GT(cuts, exact.evaluations / 2);  // most candidates lose
    }
  }
}

TEST(ObjectiveBound, PatternSearchOutputsIndependentOfCutValues) {
  for (auto* f : {&sphere, &rosenbrock}) {
    const PatternSearchResult exact = pattern_search(f, {-1.0, 1.0, 0.3});
    for (const Cut cut : {Cut::kAtBound, Cut::kInfinity}) {
      int cuts = 0;
      const PatternSearchResult got =
          pattern_search(Adversary{f, cut, &cuts}, {-1.0, 1.0, 0.3});
      EXPECT_EQ(exact.x, got.x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(exact.cost),
                std::bit_cast<std::uint64_t>(got.cost));
      EXPECT_EQ(exact.evaluations, got.evaluations);
      EXPECT_GT(cuts, 0);
    }
  }
}

// The bounds handed out are the ones the contract names: +inf for a
// particle's first evaluation, then its best cost so far; pattern search
// starts under +inf and then bounds by its incumbent.
TEST(ObjectiveBound, BoundsAreBestSoFar) {
  PsoOptions opts;
  opts.particles = 4;
  opts.iterations = 5;
  opts.stall_iterations = 0;
  std::vector<double> pbest(4, std::numeric_limits<double>::infinity());
  opts.batch_eval = [&](const std::vector<std::vector<double>>& xs,
                        const std::vector<double>& bounds,
                        std::vector<double>& costs) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(bounds[i], pbest[i]);
      costs[i] = sphere(xs[i], bounds[i]);
      pbest[i] = std::min(pbest[i], costs[i]);
    }
  };
  pso_minimize(sphere, {-5, -5}, {5, 5}, opts);

  double incumbent = std::numeric_limits<double>::infinity();
  pattern_search(
      [&](const std::vector<double>& x, double bound) {
        EXPECT_EQ(bound, incumbent);
        const double v = sphere(x, bound);
        incumbent = std::min(incumbent, v);
        return v;
      },
      {0.0, 0.0});
}

// --------------------------------------------------------- pattern search

TEST(PatternSearch, PolishesToLocalMinimum) {
  const auto res = pattern_search(sphere, {0.0, 0.0});
  EXPECT_LT(res.cost, 1e-6);
  EXPECT_NEAR(res.x[0], 1.5, 1e-3);
}

TEST(PatternSearch, DeterministicAndBounded) {
  PatternSearchOptions opts;
  opts.max_evaluations = 100;
  const auto a = pattern_search(rosenbrock, {-1.0, 1.0}, opts);
  const auto b = pattern_search(rosenbrock, {-1.0, 1.0}, opts);
  EXPECT_EQ(a.x, b.x);
  EXPECT_LE(a.evaluations, 100);
  EXPECT_THROW(pattern_search(sphere, {}), std::invalid_argument);
}

// ----------------------------------------------------------- EvalCache

TEST(EvalCache, CountsUniqueEvaluations) {
  int calls = 0;
  EvalCache cache([&calls](const std::vector<int>& p) {
    ++calls;
    return EvalOutcome{static_cast<double>(p[0]), true};
  });
  cache.evaluate({1});
  cache.evaluate({1});
  cache.evaluate({2});
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.unique_evaluations(), 2);
}

// --------------------------------------------------------- hybrid search

namespace {

/// Quadratic bowl over integers with optimum at (3, 2, 3); feasible region
/// m_i in [1, 6] componentwise (monotone / downward closed).
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

}  // namespace

TEST(HybridSearch, ClimbsToOptimumFromBothPaperStarts) {
  HybridOptions opts;
  opts.max_value = 8;
  for (const std::vector<int>& start : {std::vector<int>{4, 2, 2}, {1, 2, 1}}) {
    EvalCache cache(bowl);
    const auto res = hybrid_search(cache, cheap_box, start, opts);
    EXPECT_TRUE(res.found_feasible);
    EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3})) << "start " << start[0];
    EXPECT_GT(res.new_evaluations, 0);
  }
}

TEST(HybridSearch, MemoSharedAcrossStarts) {
  const auto ms = hybrid_search_multistart(bowl, cheap_box,
                                           {{4, 2, 2}, {1, 2, 1}}, {});
  EXPECT_TRUE(ms.combined.found_feasible);
  EXPECT_EQ(ms.combined.best, (std::vector<int>{3, 2, 3}));
  // Shared memo: total unique evaluations < sum of independent runs.
  int sum_runs = 0;
  for (const auto& r : ms.runs) sum_runs += r.new_evaluations;
  EXPECT_EQ(ms.unique_evaluations, sum_runs);
  EXPECT_LT(ms.unique_evaluations, 2 * 30);
}

TEST(HybridSearch, ToleranceEscapesLocalOptimum) {
  // 1-D landscape with a dip: f(1)=0.5, f(2)=0.49, f(3)=0.8. Plain greedy
  // from 1 stays; tolerance 0.02 crosses the dip.
  auto f = [](const std::vector<int>& m) {
    const double vals[] = {0.0, 0.5, 0.49, 0.8, 0.1};
    return EvalOutcome{vals[std::min(m[0], 4)], true};
  };
  auto cheap = [](const std::vector<int>& m) { return m[0] <= 4; };
  HybridOptions greedy;
  greedy.tolerance = 0.0;
  greedy.max_value = 4;
  EvalCache c1(f);
  const auto r1 = hybrid_search(c1, cheap, {1}, greedy);
  // Greedy sees f(2) < f(1) beyond tolerance: cannot move; but it still
  // *evaluated* the neighbors, so best-seen may include them. The path
  // must not have left the start.
  EXPECT_EQ(r1.path.size(), 1u);

  HybridOptions tol;
  tol.tolerance = 0.02;
  tol.max_value = 4;
  EvalCache c2(f);
  const auto r2 = hybrid_search(c2, cheap, {1}, tol);
  EXPECT_EQ(r2.best, (std::vector<int>{3}));
  EXPECT_GE(r2.path.size(), 3u);
}

TEST(HybridSearch, SkipsControlInfeasibleMoves) {
  // The point (2) is control-infeasible; search from (1) must still reach
  // (3) only if tolerance lets it... with (2) infeasible it cannot pass.
  auto f = [](const std::vector<int>& m) {
    const double vals[] = {0.0, 0.5, 0.9, 0.8};
    return EvalOutcome{vals[std::min(m[0], 3)], m[0] != 2};
  };
  auto cheap = [](const std::vector<int>& m) { return m[0] <= 3; };
  HybridOptions opts;
  opts.max_value = 3;
  EvalCache cache(f);
  const auto res = hybrid_search(cache, cheap, {1}, opts);
  // best-seen tracks only feasible points.
  EXPECT_EQ(res.best, (std::vector<int>{1}));
  for (const auto& p : res.path) EXPECT_NE(p[0], 2);
}

TEST(HybridSearch, RejectsInfeasibleStart) {
  EvalCache cache(bowl);
  EXPECT_THROW(hybrid_search(cache, cheap_box, {9, 9, 9}, {}),
               std::invalid_argument);
  EXPECT_THROW(hybrid_search(cache, cheap_box, {}, {}),
               std::invalid_argument);
}

TEST(HybridSearch, MultiStartCapReachedInTheLastRoundReportsCompleted) {
  // 2-D bowl with its optimum at (3, 3), from (1, 1): the walk ends by
  // itself after 4 steps and 11 evaluated points. A cap of exactly 11 is
  // reached in the last round, so the run did all its work; multi-start
  // must report the race's reason, as a lone hybrid_search under the same
  // cap does.
  const auto bowl2 = [](const std::vector<int>& m) {
    return EvalOutcome{
        1.0 - 0.05 * ((m[0] - 3) * (m[0] - 3) + (m[1] - 3) * (m[1] - 3)),
        true};
  };
  const auto in_box = [](const std::vector<int>&) { return true; };
  HybridOptions opts;
  opts.max_value = 6;
  catsched::core::RunBudget lone_budget;
  lone_budget.set_max_evaluations(11);
  opts.anytime.budget = &lone_budget;
  EvalCache cache(bowl2);
  const auto lone = hybrid_search(cache, in_box, {1, 1}, opts);
  EXPECT_EQ(lone.path.size(), 5u);
  EXPECT_EQ(lone.steps, 4);
  EXPECT_EQ(cache.unique_evaluations(), 11);
  EXPECT_EQ(lone.telemetry.stop, catsched::core::StopReason::completed);

  catsched::core::RunBudget budget;
  budget.set_max_evaluations(11);
  opts.anytime.budget = &budget;
  const auto ms = hybrid_search_multistart(bowl2, in_box, {{1, 1}}, opts);
  EXPECT_EQ(ms.unique_evaluations, 11);
  ASSERT_EQ(ms.runs.size(), 1u);
  EXPECT_EQ(ms.runs[0].steps, 4);
  EXPECT_EQ(ms.combined.best, (std::vector<int>{3, 3}));
  EXPECT_EQ(ms.telemetry.stop, catsched::core::StopReason::completed);
  EXPECT_EQ(ms.combined.telemetry.stop, catsched::core::StopReason::completed);
}

// ------------------------------------------------------------ exhaustive

TEST(Exhaustive, EnumeratesDownwardClosedRegion) {
  auto cheap = [](const std::vector<int>& m) { return m[0] + m[1] <= 4; };
  HybridOptions opts;
  opts.max_value = 10;
  const auto pts = enumerate_feasible(cheap, 2, opts);
  // {1,1},{1,2},{1,3},{2,1},{2,2},{3,1}
  EXPECT_EQ(pts.size(), 6u);
  EXPECT_THROW(enumerate_feasible(cheap, 0, opts), std::invalid_argument);
}

TEST(Exhaustive, FindsGlobalOptimumAndCounts) {
  const auto res = exhaustive_search(bowl, cheap_box, 3, HybridOptions{});
  EXPECT_TRUE(res.found_feasible);
  EXPECT_EQ(res.best, (std::vector<int>{3, 2, 3}));
  EXPECT_NEAR(res.best_value, 1.0, 1e-12);
  EXPECT_EQ(res.enumerated, static_cast<int>(res.all.size()));
  EXPECT_EQ(res.control_feasible, res.enumerated);  // all feasible here
}

TEST(Exhaustive, EvaluationCapCutsAtABlockBoundary) {
  // 8^3 = 512 points, two 256-point blocks. The cap is noted when a block
  // completes, so a cap of 1 lets the first block finish and stops before
  // the second: the cut run is exactly the full run's first block.
  const auto everything = [](const std::vector<int>&) { return true; };
  HybridOptions opts;
  opts.max_value = 8;
  const auto full = exhaustive_search(bowl, everything, 3, opts);
  ASSERT_EQ(full.enumerated, 512);
  catsched::core::RunBudget budget;
  budget.set_max_evaluations(1);
  opts.anytime.budget = &budget;
  const auto cut = exhaustive_search(bowl, everything, 3, opts);
  EXPECT_EQ(cut.telemetry.stop, catsched::core::StopReason::evaluation_limit);
  EXPECT_EQ(budget.evaluations(), 256u);
  ASSERT_EQ(cut.enumerated, 256);
  ASSERT_EQ(cut.all.size(), 256u);
  for (std::size_t i = 0; i < cut.all.size(); ++i) {
    EXPECT_EQ(cut.all[i].first, full.all[i].first) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cut.all[i].second.value),
              std::bit_cast<std::uint64_t>(full.all[i].second.value))
        << i;
  }
  EXPECT_EQ(cut.control_feasible, 256);
  EXPECT_EQ(cut.unique_evaluations, 256);
  EXPECT_EQ(cut.best, full.best);  // (3, 2, 3) lies in the first block
}

TEST(Exhaustive, HybridNeedsFewerEvaluationsThanExhaustive) {
  // The paper's headline efficiency claim on a synthetic landscape.
  const auto ex = exhaustive_search(bowl, cheap_box, 3, HybridOptions{});
  const auto ms = hybrid_search_multistart(bowl, cheap_box, {{4, 2, 2}}, {});
  EXPECT_LT(ms.unique_evaluations, ex.enumerated / 2);
  EXPECT_EQ(ms.combined.best, ex.best);
}
