/// \file test_switched_kernel.cpp
/// \brief Differential tests of the switched-simulation step loop. The
///        trace-free SwitchedSimulator::summarize() and the traced
///        simulate() share one kernel; they must agree bit-for-bit on every
///        summary metric, and the traced run's summary must equal the
///        post-passes it replaces, recomputed here from the traces: a
///        backward scan for the last band violation (dense and sampled),
///        the trailing-20% error loop, the IAE loop and the peak input.
///
/// Swept on every generator plant family: sampled and dense settling,
/// actuator clamping, an unheld first interval, gains that diverge
/// mid-segment, zero-width segments (tau = 0 and tau = h, i.e. steps = 0),
/// a horizon shorter than one interval and a tail window that starts
/// exactly on a sample.
///
/// The last tests check the design objective's early stop: its lower bound
/// on the cost, read at every sensing instant through summarize()'s stop
/// test, never exceeds the final cost, and a bounded evaluation is exact
/// below its bound and at least the bound otherwise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "control/design.hpp"
#include "control/scenarios.hpp"
#include "control/switched.hpp"
#include "core/case_study.hpp"
#include "linalg/eig.hpp"
#include "sched/schedule.hpp"
#include "sched/timing.hpp"
#include "testgen/generator.hpp"
#include "testgen/invariants.hpp"
#include "testgen/rng.hpp"

namespace {

namespace control = catsched::control;
namespace sched = catsched::sched;
namespace testgen = catsched::testgen;
using catsched::linalg::Matrix;

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Bitwise double equality (tells -0.0 from 0.0, matches infinities).
::testing::AssertionResult same_bits(const char* ea, const char* eb,
                                     double a, double b) {
  if (bits_of(a) == bits_of(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << ea << " = " << a << " vs " << eb << " = " << b;
}
#define EXPECT_SAME_BITS(a, b) EXPECT_PRED_FORMAT2(same_bits, a, b)

/// The settling rule as a backward scan for the last violation.
control::SettlingInfo backward_settling(const std::vector<double>& t,
                                        const std::vector<double>& y,
                                        double r, double band) {
  const double tol = band * std::max(std::abs(r), 1e-12);
  std::size_t last_violation = t.size();
  for (std::size_t i = t.size(); i-- > 0;) {
    if (std::abs(y[i] - r) > tol) {
      last_violation = i;
      break;
    }
  }
  if (last_violation == t.size()) return {t.front(), true};
  if (last_violation + 1 >= t.size()) {
    return {std::numeric_limits<double>::infinity(), false};
  }
  return {t[last_violation + 1], true};
}

/// Checks one (gains, options) run in both modes against each other and
/// against the trace post-passes.
void check_run(const control::SwitchedSimulator& sim,
               const control::PhaseGains& g, const Matrix& x0, double u0,
               const control::SimOptions& so) {
  const control::SimResult tr = sim.simulate(g, x0, u0, so);
  const control::SimResult sm = sim.summarize(g, x0, u0, so);

  // Trace-free agrees with traced, and records nothing.
  EXPECT_EQ(sm.settled, tr.settled);
  EXPECT_SAME_BITS(sm.settling_time, tr.settling_time);
  EXPECT_SAME_BITS(sm.tail_error, tr.tail_error);
  EXPECT_SAME_BITS(sm.iae, tr.iae);
  EXPECT_SAME_BITS(sm.u_max_abs, tr.u_max_abs);
  EXPECT_EQ(sm.diverged, tr.diverged);
  EXPECT_TRUE(sm.t.empty() && sm.y.empty() && sm.u.empty() &&
              sm.ts.empty() && sm.ys.empty());

  // Traced summary equals the post-passes over its own traces.
  ASSERT_EQ(tr.t.size(), tr.y.size());
  ASSERT_EQ(tr.ts.size(), tr.ys.size());
  ASSERT_EQ(tr.ts.size(), tr.u.size());
  ASSERT_FALSE(tr.t.empty());
  const control::SettlingInfo dense =
      backward_settling(tr.t, tr.y, so.r, so.settle_band);
  const control::SettlingInfo sampled =
      backward_settling(tr.ts, tr.ys, so.r, so.settle_band);
  const control::SettlingInfo want = so.settle_on_samples ? sampled : dense;
  EXPECT_SAME_BITS(tr.settling_time, want.time);
  EXPECT_EQ(tr.settled, want.settled && !tr.diverged);
  // The free function applies the same rule.
  const control::SettlingInfo free_dense =
      control::settling_time(tr.t, tr.y, so.r, so.settle_band);
  EXPECT_SAME_BITS(free_dense.time, dense.time);
  EXPECT_EQ(free_dense.settled, dense.settled);
  const control::SettlingInfo free_sampled =
      control::settling_time(tr.ts, tr.ys, so.r, so.settle_band);
  EXPECT_SAME_BITS(free_sampled.time, sampled.time);
  EXPECT_EQ(free_sampled.settled, sampled.settled);

  const double rref = std::max(std::abs(so.r), 1e-12);
  double tail = 0.0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    if (tr.t[i] >= 0.8 * so.horizon) {
      tail += std::abs(tr.y[i] - so.r) / rref;
      ++cnt;
    }
  }
  EXPECT_SAME_BITS(tr.tail_error,
                   cnt > 0 ? tail / static_cast<double>(cnt)
                           : std::numeric_limits<double>::infinity());
  double iae = 0.0;
  for (std::size_t i = 1; i < tr.t.size(); ++i) {
    iae += std::abs(tr.y[i] - so.r) / rref * (tr.t[i] - tr.t[i - 1]);
  }
  EXPECT_SAME_BITS(tr.iae, iae);
  double umax = 0.0;
  for (double u : tr.u) umax = std::max(umax, std::abs(u));
  EXPECT_SAME_BITS(tr.u_max_abs, umax);
  EXPECT_EQ(tr.diverged, std::abs(tr.y.back()) > so.divergence_bound);
}

struct GainCase {
  std::string name;
  control::PhaseGains gains;
  double divergence_bound;
};

TEST(SwitchedKernel, TraceFreeAndTracedRunsAgreeOnEveryPlantFamily) {
  int diverged_mid_segment = 0;
  int settled = 0;
  int unsettled = 0;
  for (const auto family : control::kAllPlantFamilies) {
    SCOPED_TRACE(control::plant_family_name(family));
    const double w0 = 120.0;
    const double zeta = 0.3;
    const control::ContinuousLTI plant =
        control::make_family_plant(family, w0, zeta, 2.0);
    const double h = control::family_default_period(family, w0, zeta);
    // tau = 0 and tau = h give a zero-width before/after segment.
    const std::vector<sched::Interval> intervals = {
        {h, 0.25 * h, false}, {1.5 * h, 0.0, false}, {0.7 * h, 0.7 * h, true}};
    const double dense_dt = h / 16.0;
    const control::SwitchedSimulator sim(plant, intervals, dense_dt);
    const control::Equilibrium eq = control::equilibrium_at(plant, 0.0);
    const double timescale = control::family_timescale(family, w0, zeta);

    control::DesignSpec spec;
    spec.plant = plant;
    spec.umax = 50.0;
    spec.r = 1.0;
    spec.smax = timescale;
    control::DesignOptions dopts = testgen::fuzz_design_options();
    dopts.dense_dt = dense_dt;
    const control::DesignResult designed =
        control::design_controller(spec, intervals, dopts);

    std::vector<GainCase> cases;
    cases.push_back({"designed", designed.gains, 1e9});
    control::PhaseGains open_loop = designed.gains;
    for (Matrix& kj : open_loop.k) kj = Matrix(1, plant.order());
    cases.push_back({"open loop", open_loop, 1e9});
    control::PhaseGains unstable = designed.gains;
    for (Matrix& kj : unstable.k) {
      for (std::size_t q = 0; q < kj.cols(); ++q) {
        kj(0, q) = 40.0 * std::abs(kj(0, q)) + 10.0;
      }
    }
    cases.push_back({"unstable", unstable, 1e9});
    // The step response crosses half the reference inside a segment.
    cases.push_back({"diverge mid-segment", designed.gains, 0.5});

    for (const GainCase& gc : cases) {
      for (int mask = 0; mask < 32; ++mask) {
        control::SimOptions so;
        so.r = spec.r;
        so.settle_on_samples = (mask & 1) != 0;
        if ((mask & 2) != 0) so.clamp_u = 0.5;
        so.hold_first_interval = (mask & 4) == 0;
        so.horizon = (mask & 8) != 0 ? 0.3 * h : 2.0 * timescale;
        so.start_phase = (mask & 16) != 0 ? 1 : 0;
        so.divergence_bound = gc.divergence_bound;
        SCOPED_TRACE(gc.name + " mask " + std::to_string(mask));
        check_run(sim, gc.gains, eq.x, eq.u, so);

        const control::SimResult sr = sim.simulate(gc.gains, eq.x, eq.u, so);
        if (sr.diverged && sr.t.size() > 1) {
          // Mid-segment: the last sample is not an interval boundary.
          const bool at_boundary =
              std::find(sr.ts.begin(), sr.ts.end(), sr.t.back()) !=
              sr.ts.end();
          if (!at_boundary) ++diverged_mid_segment;
        }
        (sr.settled ? settled : unsettled) += 1;
      }
    }
  }
  // The sweep exercises every branch it claims to.
  EXPECT_GT(diverged_mid_segment, 0);
  EXPECT_GT(settled, 0);
  EXPECT_GT(unsettled, 0);
}

TEST(SwitchedKernel, HorizonShorterThanOneIntervalRunsOneInterval) {
  const control::ContinuousLTI plant = control::make_family_plant(
      control::PlantFamily::underdamped_second_order, 100.0, 0.3, 1.0);
  const double h = 2e-3;
  const control::SwitchedSimulator sim(plant, {{h, 0.5 * h, false}}, h / 8);
  const control::Equilibrium eq = control::equilibrium_at(plant, 0.0);
  control::PhaseGains g{{Matrix(1, plant.order())}, {1.0}};
  control::SimOptions so;
  so.horizon = 0.25 * h;
  const control::SimResult tr = sim.simulate(g, eq.x, eq.u, so);
  EXPECT_EQ(tr.ts.size(), 1u);
  EXPECT_EQ(tr.t.size(), 9u);  // initial sample + 4 + 4 substeps
  const control::SimResult sm = sim.summarize(g, eq.x, eq.u, so);
  EXPECT_SAME_BITS(sm.tail_error, tr.tail_error);
  EXPECT_SAME_BITS(sm.iae, tr.iae);
}

TEST(SwitchedKernel, TailWindowStartingOnASampleIncludesIt) {
  const control::ContinuousLTI plant = control::make_family_plant(
      control::PlantFamily::first_order_lag, 150.0, 0.3, 1.0);
  const double h = 2e-3;
  const control::SwitchedSimulator sim(plant, {{h, 0.4 * h, false}}, h / 8);
  const control::Equilibrium eq = control::equilibrium_at(plant, 0.0);
  control::PhaseGains g{{Matrix(1, plant.order())}, {1.0}};
  control::SimOptions so;
  so.horizon = 20 * h;
  const control::SimResult probe = sim.simulate(g, eq.x, eq.u, so);
  // Choose a horizon whose tail boundary 0.8 * horizon is a time stamp.
  double horizon = 0.0;
  for (std::size_t i = probe.t.size() / 2; i < probe.t.size(); ++i) {
    const double candidate = probe.t[i] / 0.8;
    if (0.8 * candidate == probe.t[i]) {
      horizon = candidate;
      break;
    }
  }
  ASSERT_GT(horizon, 0.0);
  so.horizon = horizon;
  check_run(sim, g, eq.x, eq.u, so);
}

// ------------------------------------------------ the design cost's bound

/// Classes of runs the bound sweep must reach.
struct BoundCoverage {
  int barrier = 0;     ///< unstable or singular: no simulation
  int settled = 0;
  int unsettled = 0;
  int diverged = 0;
  int saturating = 0;
  int stopped = 0;     ///< bounded evaluations that ended early
};

/// Runs \p so to the end, checking that the objective's lower bound at
/// every sensing instant is <= the final cost of the cost rule.
control::SimResult check_lower_bounds(const control::DesignObjective& obj,
                                      const control::PhaseGains& g,
                                      const control::SimOptions& so,
                                      std::vector<double>& lbs) {
  lbs.clear();
  const control::Equilibrium& eq = obj.equilibrium();
  double last_t = -1.0;
  const control::SimResult sr = obj.simulator().summarize(
      g, eq.x, eq.u, so, [&](const control::SimProgress& p) {
        EXPECT_GT(p.t, last_t);
        last_t = p.t;
        lbs.push_back(obj.lower_bound(p));
        return false;
      });
  EXPECT_FALSE(sr.stopped);
  const double final_cost = obj.run_cost(sr);
  EXPECT_FALSE(std::isnan(final_cost));
  EXPECT_FALSE(lbs.empty());
  for (double lb : lbs) EXPECT_LE(lb, final_cost);
  return sr;
}

/// Draws gain vectors around \p center: scaled up (saturating), down
/// (sluggish, unsettled), jittered and sign-flipped (unstable). Checks the
/// bound along every simulated run, also with a divergence bound the
/// response crosses, and that a bounded evaluation returns the exact bits
/// below its bound and a value >= the bound otherwise.
void sweep_bound(const control::DesignObjective& obj,
                 const std::vector<double>& center, std::uint64_t seed,
                 int draws, BoundCoverage& cov) {
  testgen::SplitMix64 rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> lbs;
  for (int draw = 0; draw < draws; ++draw) {
    std::vector<double> theta = center;
    const double scale = std::exp(rng.real(-4.0, 2.0));
    for (double& v : theta) {
      v *= scale * (1.0 + 0.3 * rng.real(-1.0, 1.0));
      if (rng.chance(0.05)) v = -v;
    }
    SCOPED_TRACE("draw " + std::to_string(draw));
    const double exact = obj(theta, inf);
    ASSERT_FALSE(std::isnan(exact));

    const std::vector<Matrix> k = obj.gains(theta);
    const double rho = catsched::linalg::spectral_radius(
        control::closed_loop_monodromy(obj.simulator().phases(), k));
    const auto f = rho < 1.0 - control::kStabilityMargin ? obj.feedforward(k)
                                                         : std::nullopt;
    if (!f) {
      ++cov.barrier;
      lbs.clear();
    } else {
      const control::PhaseGains g{k, *f};
      const control::SimResult sr =
          check_lower_bounds(obj, g, obj.sim_options(), lbs);
      EXPECT_SAME_BITS(obj.run_cost(sr), exact);
      (sr.settled ? cov.settled : cov.unsettled) += 1;
      if (sr.u_max_abs > obj.spec().umax) ++cov.saturating;
      if (sr.diverged) ++cov.diverged;

      // The cost rule on a diverged run: the response crosses this bound.
      control::SimOptions low = obj.sim_options();
      low.divergence_bound =
          0.5 * (std::abs(obj.spec().r) + std::abs(obj.spec().y0));
      std::vector<double> low_lbs;
      if (check_lower_bounds(obj, g, low, low_lbs).diverged) ++cov.diverged;
    }

    std::vector<double> bounds = {exact,
                                  std::nextafter(exact, -inf),
                                  std::nextafter(exact, inf),
                                  0.5 * exact,
                                  2.0 * exact,
                                  rng.real(0.0, 1.5 * exact),
                                  0.0};
    // Bounds the run's own lower bounds reach: cut right at a stop point.
    if (!lbs.empty()) {
      bounds.push_back(lbs.back());
      for (int pick = 0; pick < 4; ++pick) {
        bounds.push_back(lbs[rng.index(lbs.size())]);
      }
    }
    for (const double bound : bounds) {
      const double got = obj(theta, bound);
      if (exact < bound) {
        EXPECT_SAME_BITS(got, exact) << " bound " << bound;
      } else {
        EXPECT_GE(got, bound);
        if (bits_of(got) != bits_of(exact)) ++cov.stopped;
      }
    }
  }
}

control::DesignSpec spec_of(const catsched::core::Application& a) {
  control::DesignSpec spec;
  spec.plant = a.plant;
  spec.umax = a.umax;
  spec.r = a.r;
  spec.y0 = a.y0;
  spec.smax = a.smax;
  return spec;
}

/// The cheapest run_cost each outcome class can reach from a run's state
/// \p p: settling right at the settling bound with no further error,
/// ending unsettled with no tail error, or diverging. Continuations only
/// add IAE and input, so the lower bound must stay below all three.
TEST(DesignCostBound, BoundsEveryOutcomeClassOfAnyContinuation) {
  const catsched::core::SystemModel model = catsched::core::date18_case_study();
  const sched::ScheduleTiming timing = sched::derive_timing(
      model.analyze_wcets(), sched::PeriodicSchedule({3, 2, 3}));
  const control::DesignSpec spec = spec_of(model.apps[0]);
  const control::DesignObjective obj(spec, timing.apps[0].intervals,
                                     catsched::core::date18_design_options());
  const double horizon = obj.sim_options().horizon;
  int checked = 0;
  for (const double settle : {0.0, 0.3 * horizon, horizon}) {
    for (const double t : {settle, horizon}) {
      for (const double iae : {0.0, 0.5 * horizon, 30.0 * horizon, 1e6}) {
        for (const double u : {0.0, 0.5 * spec.umax, spec.umax,
                               1.5 * spec.umax, 1e9 * spec.umax}) {
          const control::SimProgress p{t, settle, iae, u};
          control::SimResult settled;
          settled.settled = true;
          settled.settling_time = settle;
          settled.iae = iae;
          settled.u_max_abs = u;
          control::SimResult unsettled = settled;
          unsettled.settled = false;
          unsettled.settling_time = std::numeric_limits<double>::infinity();
          unsettled.tail_error = 0.0;
          control::SimResult diverged = unsettled;
          diverged.diverged = true;
          const double lb = obj.lower_bound(p);
          EXPECT_LE(lb, obj.run_cost(settled));
          EXPECT_LE(lb, obj.run_cost(unsettled));
          EXPECT_LE(lb, obj.run_cost(diverged));
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 120);
}

/// Every case-study app on (3,2,3) (dense settling) and every app of
/// generated systems on their round-robin schedule (sampled settling), 200
/// draws each around a quickly designed center.
TEST(DesignCostBound, NeverExceedsTheFinalCostAndCutsOnlyAtTheBound) {
  BoundCoverage cov;
  int plants = 0;
  const auto sweep_system = [&](const catsched::core::SystemModel& model,
                                const sched::PeriodicSchedule& schedule,
                                control::DesignOptions opts,
                                std::uint64_t seed) {
    opts.pso.particles = 6;
    opts.pso.iterations = 6;
    opts.pso_restarts = 1;
    opts.scale_budget_with_dims = false;
    const sched::ScheduleTiming timing =
        sched::derive_timing(model.analyze_wcets(), schedule);
    for (std::size_t i = 0; i < model.apps.size(); ++i) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " app " +
                   std::to_string(i));
      const control::DesignSpec spec = spec_of(model.apps[i]);
      const auto& ivs = timing.apps[i].intervals;
      const control::DesignResult d =
          control::design_controller(spec, ivs, opts);
      std::vector<double> center;
      for (const Matrix& kj : d.gains.k) {
        for (std::size_t q = 0; q < kj.cols(); ++q) center.push_back(kj(0, q));
      }
      const control::DesignObjective obj(spec, ivs, opts);
      sweep_bound(obj, center, seed * 131 + i, 200, cov);
      ++plants;
    }
  };

  sweep_system(catsched::core::date18_case_study(),
               sched::PeriodicSchedule({3, 2, 3}),
               catsched::core::date18_design_options(), 0);
  const testgen::GeneratorConfig config;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const testgen::GeneratedSystem sys = testgen::generate_system(config, seed);
    control::DesignOptions opts = testgen::fuzz_design_options();
    double max_smax = 0.0;
    for (const auto& a : sys.model.apps) max_smax = std::max(max_smax, a.smax);
    opts.dense_dt = std::max(
        opts.dense_dt,
        opts.horizon_factor * max_smax /
            static_cast<double>(testgen::InvariantOptions{}.dense_steps));
    sweep_system(sys.model,
                 sched::PeriodicSchedule(
                     std::vector<int>(sys.model.apps.size(), 1)),
                 opts, seed);
  }
  EXPECT_GE(plants, 9);
  EXPECT_GT(cov.barrier, 0);
  EXPECT_GT(cov.settled, 0);
  EXPECT_GT(cov.unsettled, 0);
  EXPECT_GT(cov.diverged, 0);
  EXPECT_GT(cov.saturating, 0);
  EXPECT_GT(cov.stopped, 0);
  std::printf("bound sweep: %d plants, barrier %d settled %d unsettled %d "
              "diverged %d saturating %d stopped %d\n",
              plants, cov.barrier, cov.settled, cov.unsettled, cov.diverged,
              cov.saturating, cov.stopped);
}

}  // namespace
