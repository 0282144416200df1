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

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "control/design.hpp"
#include "control/scenarios.hpp"
#include "control/switched.hpp"
#include "testgen/invariants.hpp"

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

}  // namespace
