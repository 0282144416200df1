/// \file test_incremental.cpp
/// \brief Neighbor re-evaluation tests: Evaluator::derive_neighbor_timing
///        rejecting invalid move and rotation descriptors, neighbor
///        generation carrying exact rotation descriptors, anchored
///        Evaluator::evaluate(s, &base) bit-identical to the plain
///        evaluate(s) for every neighbor class, the interleaved search's
///        accepted path reproducing on a fresh evaluator (at 1/2/4
///        threads), the neighbor-routed hybrid search bit-identical to the
///        plain objective with memo counters never exceeding its counts,
///        quantization rejecting degenerate intervals, and the static-WCET
///        subtree memo differential.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cache/program.hpp"
#include "cache/static_wcet.hpp"
#include "cache/structure.hpp"
#include "core/case_study.hpp"
#include "core/codesign.hpp"
#include "core/interleaved_codesign.hpp"
#include "core/parallel.hpp"
#include "sched/timing.hpp"

namespace {

using catsched::core::Application;
using catsched::core::Evaluator;
using catsched::core::EvaluatorOptions;
using catsched::core::interleaved_neighbor_moves;
using catsched::core::interleaved_search;
using catsched::core::InterleavedSearchOptions;
using catsched::core::quantize_intervals;
using catsched::core::ScheduleEvaluation;
using catsched::core::SystemModel;
using catsched::sched::BlockRotation;
using catsched::sched::InterleavedSchedule;
using catsched::sched::Interval;
using catsched::sched::PeriodicSchedule;
using catsched::sched::ScheduleTiming;
using catsched::sched::TaskMove;
using catsched::sched::TimingPattern;
namespace cache = catsched::cache;
namespace control = catsched::control;
namespace linalg = catsched::linalg;
namespace opt = catsched::opt;

/// Bit-level equality (EXPECT_EQ on doubles would also pass -0.0 == 0.0;
/// the anchored-evaluation contract is the stronger "same bits").
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

::testing::AssertionResult timing_identical(const ScheduleTiming& a,
                                            const ScheduleTiming& b) {
  if (!same_bits(a.period, b.period)) {
    return ::testing::AssertionResult(false) << "period bits differ";
  }
  if (a.apps.size() != b.apps.size()) {
    return ::testing::AssertionResult(false) << "app count differs";
  }
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const auto& ia = a.apps[i].intervals;
    const auto& ib = b.apps[i].intervals;
    if (ia.size() != ib.size()) {
      return ::testing::AssertionResult(false)
             << "app " << i << " interval count differs";
    }
    for (std::size_t j = 0; j < ia.size(); ++j) {
      if (!same_bits(ia[j].h, ib[j].h) || !same_bits(ia[j].tau, ib[j].tau) ||
          ia[j].warm != ib[j].warm) {
        return ::testing::AssertionResult(false)
               << "app " << i << " interval " << j << " differs";
      }
    }
  }
  return ::testing::AssertionResult(true);
}

TEST(DeriveTimingRotation, SegmentSwapNeighborsCarryRotationDescriptors) {
  // A 3-segment schedule: every non-wrapping cyclic-successor swap must
  // come out of the neighbor generator with a rotation descriptor that
  // reproduces the candidate's canonical sequence exactly.
  const InterleavedSchedule base(
      {{0, 2}, {1, 1}, {2, 3}}, 3);
  const std::vector<std::size_t> base_seq = base.task_sequence();
  int with_rotation = 0;
  for (const auto& nb : interleaved_neighbor_moves(base, {})) {
    EXPECT_FALSE(nb.move && nb.rotation);  // at most one descriptor
    if (!nb.rotation) continue;
    ++with_rotation;
    EXPECT_EQ(catsched::sched::apply_rotation(base_seq, *nb.rotation),
              nb.schedule.task_sequence());
  }
  // Swaps of (segment 0, 1) and (1, 2) are non-wrapping; the (2, 0) swap
  // wraps and must stay descriptor-free. Some swapped shapes may be
  // invalid (mergeable) and dropped, hence >= 1 rather than == 2.
  EXPECT_GE(with_rotation, 1);
}

TEST(QuantizeIntervals, RejectsDegenerateIntervals) {
  const auto iv = [](double h, double tau) {
    Interval i;
    i.h = h;
    i.tau = tau;
    return i;
  };
  EXPECT_THROW(
      quantize_intervals({iv(std::numeric_limits<double>::infinity(), 1e-3)}),
      std::invalid_argument);
  EXPECT_THROW(
      quantize_intervals({iv(1e-3, std::numeric_limits<double>::quiet_NaN())}),
      std::invalid_argument);
  // Overflowing magnitude: |h| * 1e12 would not fit in int64 (llround UB).
  EXPECT_THROW(quantize_intervals({iv(1e9, 1e-3)}), std::invalid_argument);
  EXPECT_THROW(quantize_intervals({iv(1e-3, -1e9)}), std::invalid_argument);
  // Valid intervals quantize to picoseconds.
  const auto key = quantize_intervals({iv(2e-3, 0.5e-3)});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0], 2000000000);
  EXPECT_EQ(key[1], 500000000);
}

/// Two-app synthetic system, fast design options (as in
/// test_interleaved_search).
SystemModel tiny_system() {
  SystemModel sys;
  sys.cache_config = catsched::core::date18_cache_config();
  const std::size_t sets = sys.cache_config.num_sets();
  auto make_app = [&](const char* name, std::size_t singles,
                      std::size_t groups, std::uint64_t base, double w0,
                      double weight) {
    Application a;
    a.name = name;
    cache::CalibratedLayout lay;
    lay.singleton_lines = singles;
    lay.conflict_group_sizes.assign(groups, 2);
    lay.extra_hit_fetches = 10;
    a.program = cache::make_calibrated_program(name, lay, sets, base);
    control::ContinuousLTI p;
    p.a = linalg::Matrix{{0.0, 1.0}, {-w0 * w0, -0.4 * w0}};
    p.b = linalg::Matrix{{0.0}, {3.0e6}};
    p.c = linalg::Matrix{{1.0, 0.0}};
    a.plant = p;
    a.weight = weight;
    a.smax = 25e-3;
    a.tidle = 9e-3;
    a.umax = 80.0;
    a.r = 1000.0;
    return a;
  };
  sys.apps = {make_app("A", 100, 16, 0, 110.0, 0.6),
              make_app("B", 90, 22, 1024, 140.0, 0.4)};
  return sys;
}

control::DesignOptions fast_options() {
  control::DesignOptions o = catsched::core::date18_design_options();
  o.pso.particles = 12;
  o.pso.iterations = 20;
  o.pso.stall_iterations = 8;
  o.pso_restarts = 1;
  o.scale_budget_with_dims = false;
  return o;
}

/// tiny_system plus a third app, so segment swaps can produce valid
/// schedules (with two apps every swap puts two same-app segments side
/// by side).
SystemModel three_app_system() {
  SystemModel sys = tiny_system();
  Application c = sys.apps[1];
  c.name = "C";
  c.program = cache::make_calibrated_program(
      "C", cache::CalibratedLayout{80, std::vector<std::size_t>(12, 2), 10},
      sys.cache_config.num_sets(), 2048);
  c.weight = 0.2;
  sys.apps[0].weight = 0.5;
  sys.apps[1].weight = 0.3;
  sys.apps.push_back(c);
  return sys;
}

TEST(DeriveNeighborTiming, RejectsInvalidMoves) {
  const InterleavedSchedule base({{0, 2}, {1, 1}}, 2);  // tasks 0 0 1
  for (const bool context : {false, true}) {
    SCOPED_TRACE(context ? "context WCETs" : "binary WCETs");
    Evaluator ev(tiny_system(), fast_options(), nullptr,
                 EvaluatorOptions{.context_wcets = context});
    const TimingPattern& pattern = ev.timing_pattern(base, base.to_string());
    TaskMove bad;
    bad.kind = TaskMove::Kind::insert;
    bad.pos = 5;  // past the end
    EXPECT_THROW(ev.derive_neighbor_timing(pattern, bad, nullptr),
                 std::invalid_argument);
    bad.pos = 0;
    bad.app = 7;  // no such app
    EXPECT_THROW(ev.derive_neighbor_timing(pattern, bad, nullptr),
                 std::invalid_argument);
    TaskMove orphan;
    orphan.kind = TaskMove::Kind::remove;
    orphan.pos = 2;  // app 1's only task
    EXPECT_THROW(ev.derive_neighbor_timing(pattern, orphan, nullptr),
                 std::invalid_argument);
  }
}

TEST(DeriveNeighborTiming, RejectsInvalidRotations) {
  const InterleavedSchedule base({{0, 2}, {1, 1}}, 2);  // tasks 0 0 1
  for (const bool context : {false, true}) {
    SCOPED_TRACE(context ? "context WCETs" : "binary WCETs");
    Evaluator ev(tiny_system(), fast_options(), nullptr,
                 EvaluatorOptions{.context_wcets = context});
    const TimingPattern& pattern = ev.timing_pattern(base, base.to_string());
    // Range past the end of the sequence.
    EXPECT_THROW(
        ev.derive_neighbor_timing(pattern, BlockRotation{2, 2, 1}, nullptr),
        std::invalid_argument);
    // Degenerate block (len < 2).
    EXPECT_THROW(
        ev.derive_neighbor_timing(pattern, BlockRotation{0, 1, 0}, nullptr),
        std::invalid_argument);
    // Identity / out-of-range shift.
    EXPECT_THROW(
        ev.derive_neighbor_timing(pattern, BlockRotation{0, 2, 0}, nullptr),
        std::invalid_argument);
    EXPECT_THROW(
        ev.derive_neighbor_timing(pattern, BlockRotation{0, 2, 2}, nullptr),
        std::invalid_argument);
  }
}

TEST(EvaluateAnchored, BitIdenticalToFromScratchEvaluation) {
  Evaluator ev(three_app_system(), fast_options());
  // Non-wrapping swaps of this base are rotations, the wrap-around swap
  // has no descriptor.
  const InterleavedSchedule base({{0, 2}, {1, 1}, {0, 1}, {1, 1}, {2, 2}}, 3);
  const std::string base_key = base.to_string();
  const ScheduleEvaluation& base_eval = ev.evaluate_cached(base, base_key);
  const TimingPattern& pattern = ev.timing_pattern(base, base_key);

  InterleavedSearchOptions opts;
  opts.max_segments = 5;
  opts.max_burst = 4;
  int per_class[3] = {0, 0, 0};  // move, rotation, neither
  for (const auto& nb : interleaved_neighbor_moves(base, opts)) {
    ++per_class[nb.move ? 0 : nb.rotation ? 1 : 2];
    const ScheduleEvaluation anchored = ev.evaluate(nb.schedule, &base_eval);
    ScheduleEvaluation scratch = ev.evaluate(nb.schedule);
    ASSERT_TRUE(timing_identical(anchored.timing, scratch.timing))
        << nb.schedule.to_string();
    ASSERT_TRUE(same_bits(anchored.pall, scratch.pall))
        << nb.schedule.to_string();
    ASSERT_EQ(anchored.idle_feasible, scratch.idle_feasible);
    ASSERT_EQ(anchored.control_feasible, scratch.control_feasible);
    ASSERT_EQ(anchored.apps.size(), scratch.apps.size());
    for (std::size_t i = 0; i < scratch.apps.size(); ++i) {
      ASSERT_TRUE(
          same_bits(anchored.apps[i].performance, scratch.apps[i].performance));
      ASSERT_TRUE(same_bits(anchored.apps[i].settling_time,
                            scratch.apps[i].settling_time));
      ASSERT_EQ(anchored.apps[i].feasible, scratch.apps[i].feasible);
      ASSERT_EQ(anchored.apps[i].pattern_key, scratch.apps[i].pattern_key);
    }
    // A descriptor derives the same timing the evaluation used.
    if (nb.move) {
      ASSERT_TRUE(timing_identical(
          ev.derive_neighbor_timing(pattern, *nb.move, nullptr),
          scratch.timing));
    }
    if (nb.rotation) {
      ASSERT_TRUE(timing_identical(
          ev.derive_neighbor_timing(pattern, *nb.rotation, nullptr),
          scratch.timing));
    }
  }
  // All three neighbor classes went through the anchored path.
  EXPECT_GT(per_class[0], 0);
  EXPECT_GT(per_class[1], 0);
  EXPECT_GT(per_class[2], 0);
}

TEST(EvaluateAnchored, UnusableAnchorIsIgnored) {
  // A base evaluation with no per-app state (a default-constructed
  // ScheduleEvaluation) falls back to the plain evaluation: no neighbor
  // completion is counted and nothing is reused.
  Evaluator ev(tiny_system(), fast_options());
  const InterleavedSchedule moved({{0, 3}, {1, 2}}, 2);
  const ScheduleEvaluation synthetic;
  const ScheduleEvaluation via_anchor = ev.evaluate(moved, &synthetic);
  EXPECT_EQ(ev.neighbor_evaluations(), 0);
  EXPECT_EQ(ev.apps_reused(), 0);
  EXPECT_TRUE(same_bits(via_anchor.pall, ev.evaluate(moved).pall));
}

TEST(EvaluateAnchored, SwapAnchorReusesUntouchedApps) {
  // Three apps so a segment swap can leave one app's pattern intact:
  // (A, B, A, B, C) -> swap the last two segments -> (A, B, A, C, B).
  Evaluator ev(three_app_system(), fast_options());
  const InterleavedSchedule base(
      {{0, 1}, {1, 1}, {0, 1}, {1, 1}, {2, 1}}, 3);
  const InterleavedSchedule swapped(
      {{0, 1}, {1, 1}, {0, 1}, {2, 1}, {1, 1}}, 3);
  const ScheduleEvaluation base_eval = ev.evaluate(base);

  ScheduleEvaluation plain = ev.evaluate(swapped);
  const int reused_before = ev.apps_reused();
  ScheduleEvaluation anchored = ev.evaluate(swapped, &base_eval);
  // App A (index 0) has no task in the swapped window and the window's
  // total duration is unchanged (all cold singletons), so its pattern —
  // and at worst its quantized fingerprint — survives the swap.
  EXPECT_GT(ev.apps_reused(), reused_before);
  ASSERT_TRUE(same_bits(anchored.pall, plain.pall));
  ASSERT_TRUE(timing_identical(anchored.timing, plain.timing));
  for (std::size_t i = 0; i < plain.apps.size(); ++i) {
    ASSERT_TRUE(same_bits(anchored.apps[i].performance,
                          plain.apps[i].performance));
    ASSERT_EQ(anchored.apps[i].pattern_key, plain.apps[i].pattern_key);
  }
}

TEST(IncrementalSearch, AcceptedPathReproducesOnFreshEvaluatorAtEveryThreadCount) {
  const auto start =
      InterleavedSchedule::from_periodic(PeriodicSchedule({1, 1}));
  InterleavedSearchOptions opts;
  opts.max_steps = 3;
  opts.max_segments = 4;
  opts.max_burst = 4;

  // Anchor-free reference evaluations of every accepted schedule.
  Evaluator fresh(tiny_system(), fast_options());
  std::optional<catsched::core::InterleavedSearchResult> first;
  int first_designs = 0;
  int first_schedules = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    catsched::core::ThreadPool pool(threads);
    Evaluator ev(tiny_system(), fast_options());
    const auto res = interleaved_search(ev, start, opts,
                                        threads == 1 ? nullptr : &pool);
    ASSERT_TRUE(res.found);
    ASSERT_FALSE(res.path.empty());
    EXPECT_GT(ev.neighbor_evaluations(), 0);

    // Replay the accepted path through the neighbor generator: each key
    // must be a neighbor of its predecessor, memoized by the search, and
    // bit-identical to the fresh anchor-free evaluation.
    InterleavedSchedule cur = start;
    ASSERT_EQ(res.path.front(), cur.to_string());
    for (std::size_t step = 0; step < res.path.size(); ++step) {
      if (step > 0) {
        const auto nbs = interleaved_neighbor_moves(cur, opts);
        const auto it = std::find_if(nbs.begin(), nbs.end(), [&](const auto& nb) {
          return nb.schedule.to_string() == res.path[step];
        });
        ASSERT_NE(it, nbs.end()) << res.path[step];
        cur = it->schedule;
      }
      const int memo_before = ev.schedule_evaluations();
      const ScheduleEvaluation& searched =
          ev.evaluate_cached(cur, res.path[step]);
      EXPECT_EQ(ev.schedule_evaluations(), memo_before) << res.path[step];
      const ScheduleEvaluation reference = fresh.evaluate(cur);
      EXPECT_TRUE(same_bits(searched.pall, reference.pall)) << res.path[step];
      EXPECT_EQ(searched.idle_feasible, reference.idle_feasible);
      EXPECT_EQ(searched.control_feasible, reference.control_feasible);
    }
    const ScheduleEvaluation best = fresh.evaluate(res.best);
    EXPECT_TRUE(same_bits(res.best_evaluation.pall, best.pall));
    EXPECT_EQ(res.best_evaluation.feasible(), best.feasible());

    if (!first) {
      first = res;
      first_designs = ev.designs_run();
      first_schedules = ev.schedule_evaluations();
      continue;
    }
    EXPECT_EQ(first->path, res.path);
    EXPECT_EQ(first->best.to_string(), res.best.to_string());
    EXPECT_EQ(first->steps, res.steps);
    EXPECT_EQ(first->unique_evaluations, res.unique_evaluations);
    EXPECT_EQ(first_designs, ev.designs_run());
    EXPECT_EQ(first_schedules, ev.schedule_evaluations());
  }
}

TEST(IncrementalHybrid, DeltaRoutedCodesignMatchesPlainObjective) {
  // find_optimal_schedule wires the neighbor objective; the plain
  // multistart (no neighbor objective) is the from-scratch baseline.
  opt::HybridOptions hopts;
  hopts.max_value = 4;
  const std::vector<std::vector<int>> starts{{1, 1}, {2, 1}};

  Evaluator plain_ev(tiny_system(), fast_options());
  const auto plain = opt::hybrid_search_multistart(
      catsched::core::make_objective(plain_ev),
      catsched::core::make_cheap_feasible(plain_ev), starts, hopts);

  Evaluator delta_ev(tiny_system(), fast_options());
  const auto routed = catsched::core::find_optimal_schedule(
      delta_ev, starts, hopts);

  ASSERT_EQ(plain.combined.found_feasible, routed.found);
  ASSERT_TRUE(routed.found);
  EXPECT_EQ(plain.combined.best,
            routed.best_schedule.bursts());
  EXPECT_TRUE(
      same_bits(plain.combined.best_value, routed.best_evaluation.pall));
  EXPECT_EQ(plain.unique_evaluations, routed.schedules_evaluated);
  EXPECT_EQ(plain_ev.designs_run(), delta_ev.designs_run());
  EXPECT_LE(delta_ev.design_requests(), plain_ev.design_requests());
}

TEST(StaticMemo, MemoizedAnalysisBitIdenticalWithGuaranteedHits) {
  for (std::uint32_t seed : {1u, 7u, 23u}) {
    cache::RandomProgramOptions opts;
    opts.seed = seed;
    opts.max_depth = 3;
    opts.branch_probability = 0.25;  // bias toward loops (the memo's prey)
    const cache::StructuredProgram prog =
        cache::make_random_program("p", opts);
    cache::CacheConfig cfg;
    cfg.num_lines = 32;
    cfg.associativity = 2;

    const auto plain = cache::analyze_static_app_wcet(prog, cfg);
    cache::StaticAnalysisMemo memo;
    const auto memoized = cache::analyze_static_app_wcet(prog, cfg, &memo);

    EXPECT_EQ(plain.cold.wcet_cycles, memoized.cold.wcet_cycles);
    EXPECT_EQ(plain.cold.always_hit, memoized.cold.always_hit);
    EXPECT_EQ(plain.cold.always_miss, memoized.cold.always_miss);
    EXPECT_EQ(plain.cold.not_classified, memoized.cold.not_classified);
    EXPECT_TRUE(plain.cold.exit_state == memoized.cold.exit_state);
    EXPECT_EQ(plain.warm.wcet_cycles, memoized.warm.wcet_cycles);
    EXPECT_TRUE(plain.warm.exit_state == memoized.warm.exit_state);
    // Every stabilized multi-iteration loop replays its final probe in the
    // steady pass: with any such loop present the memo must hit.
    if (memo.size() > 0) {
      EXPECT_GT(memo.stats().hits, 0u) << "seed " << seed;
    }
    // A second memoized analysis of the same program is pure hits.
    const auto before = memo.stats();
    const auto again =
        cache::analyze_static_wcet(prog, cfg, std::nullopt, &memo);
    EXPECT_EQ(again.wcet_cycles, plain.cold.wcet_cycles);
    EXPECT_EQ(memo.stats().misses, before.misses);
  }
}

TEST(StaticMemo, CachePairHashRespectsEquality) {
  cache::CacheConfig cfg;
  cfg.num_lines = 16;
  cfg.associativity = 2;
  cache::CachePair a(cfg);
  cache::CachePair b(cfg);
  EXPECT_EQ(cache::CachePairHash{}(a), cache::CachePairHash{}(b));
  a.access(3);
  a.access(7);
  cache::CachePair c(cfg);
  c.access(3);
  c.access(7);
  EXPECT_TRUE(a == c);
  EXPECT_EQ(cache::CachePairHash{}(a), cache::CachePairHash{}(c));
  EXPECT_NE(cache::CachePairHash{}(a), cache::CachePairHash{}(b));
}

}  // namespace
