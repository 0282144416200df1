/// \file test_scenarios.cpp
/// \brief Disturbance-rejection and reference-tracking scenario tests, plus
///        the generator's plant families.

#include <gtest/gtest.h>

#include <cmath>

#include "control/c2d.hpp"
#include "control/design.hpp"
#include "control/lti.hpp"
#include "control/scenarios.hpp"

namespace {

using catsched::control::ContinuousLTI;
using catsched::control::DesignOptions;
using catsched::control::DesignSpec;
using catsched::control::disturbance_rejection;
using catsched::control::DisturbanceOptions;
using catsched::control::PhaseGains;
using catsched::control::track_reference;
using catsched::linalg::Matrix;
using catsched::sched::Interval;

struct Fixture {
  DesignSpec spec;
  std::vector<Interval> intervals;
  PhaseGains gains;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture f;
    f.spec.plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
    f.spec.plant.b = Matrix{{0.0}, {200.0}};
    f.spec.plant.c = Matrix{{1.0, 0.0}};
    f.spec.umax = 50.0;
    f.spec.r = 0.3;
    f.spec.smax = 0.5;
    f.intervals = {{0.010, 0.010, false}, {0.026, 0.006, true}};
    DesignOptions opts;
    opts.pso.particles = 24;
    opts.pso.iterations = 40;
    opts.pso_restarts = 1;
    opts.scale_budget_with_dims = false;
    f.gains = catsched::control::design_controller(f.spec, f.intervals,
                                                   opts)
                  .gains;
    return f;
  }();
  return fx;
}

TEST(Disturbance, ZeroMagnitudeNeverLeavesTheBand) {
  const auto& fx = fixture();
  DisturbanceOptions opts;
  opts.magnitude = 0.0;
  opts.at_time = 0.1;
  opts.duration = 0.05;
  opts.horizon = 0.6;
  const auto res = disturbance_rejection(fx.spec.plant, fx.intervals,
                                         fx.gains, fx.spec.r, opts);
  EXPECT_TRUE(res.recovered);
  EXPECT_NEAR(res.recovery_time, 0.0, 1e-12);
  EXPECT_LT(res.peak_deviation, 0.02 * fx.spec.r + 1e-9);
}

TEST(Disturbance, StepHitIsRejectedAndRecoveryMeasured) {
  const auto& fx = fixture();
  DisturbanceOptions opts;
  opts.magnitude = 5.0;
  opts.at_time = 0.1;
  opts.duration = 0.08;
  opts.horizon = 1.0;
  const auto res = disturbance_rejection(fx.spec.plant, fx.intervals,
                                         fx.gains, fx.spec.r, opts);
  EXPECT_GT(res.peak_deviation, 0.02 * fx.spec.r);  // it really hit
  EXPECT_TRUE(res.recovered);
  EXPECT_GT(res.recovery_time, 0.0);
  EXPECT_LT(res.recovery_time, 0.5);
}

TEST(Disturbance, LargerHitDeviatesMore) {
  const auto& fx = fixture();
  DisturbanceOptions small;
  small.magnitude = 2.0;
  small.at_time = 0.1;
  small.duration = 0.08;
  small.horizon = 1.0;
  DisturbanceOptions large = small;
  large.magnitude = 8.0;
  const auto rs = disturbance_rejection(fx.spec.plant, fx.intervals,
                                        fx.gains, fx.spec.r, small);
  const auto rl = disturbance_rejection(fx.spec.plant, fx.intervals,
                                        fx.gains, fx.spec.r, large);
  EXPECT_GT(rl.peak_deviation, rs.peak_deviation);
}

TEST(Disturbance, RejectsHorizonEndingInsideTheHit) {
  const auto& fx = fixture();
  DisturbanceOptions opts;
  opts.at_time = 0.1;
  opts.duration = 0.2;
  opts.horizon = 0.25;
  EXPECT_THROW(disturbance_rejection(fx.spec.plant, fx.intervals, fx.gains,
                                     fx.spec.r, opts),
               std::invalid_argument);
}

TEST(Tracking, ConstantReferenceMatchesStepBehaviour) {
  const auto& fx = fixture();
  const auto res = track_reference(
      fx.spec.plant, fx.intervals, fx.gains,
      [&](double) { return fx.spec.r; }, 1.2, 0.5);
  EXPECT_LT(res.rms_error, 0.01 * fx.spec.r);  // settled long before 50%
}

TEST(Tracking, SlowRampIsFollowedCloselyFastSineIsNot) {
  const auto& fx = fixture();
  const auto ramp = track_reference(
      fx.spec.plant, fx.intervals, fx.gains,
      [](double t) { return 0.1 * t; }, 2.0, 0.3);
  // Steady ramp-following error exists but stays small vs signal scale.
  EXPECT_LT(ramp.rms_error, 0.05);

  const auto slow_sine = track_reference(
      fx.spec.plant, fx.intervals, fx.gains,
      [](double t) { return 0.2 * std::sin(2.0 * M_PI * 0.5 * t); }, 2.0,
      0.3);
  const auto fast_sine = track_reference(
      fx.spec.plant, fx.intervals, fx.gains,
      [](double t) { return 0.2 * std::sin(2.0 * M_PI * 8.0 * t); }, 2.0,
      0.3);
  // Bandwidth is finite: tracking a faster reference is strictly worse.
  EXPECT_GT(fast_sine.rms_error, slow_sine.rms_error);
}

TEST(Tracking, RejectsBadWarmup) {
  const auto& fx = fixture();
  EXPECT_THROW(track_reference(fx.spec.plant, fx.intervals, fx.gains,
                               [](double) { return 1.0; }, 1.0, 1.0),
               std::invalid_argument);
}

TEST(PlantFamilies, EveryFamilyIsControllableAtItsDefaultDiscretization) {
  // The workload generator's validity contract: any family instance it can
  // sample must be controllable both in continuous time and — what the
  // design kernel actually sees — as the discrete (Ad, Btot) pair at the
  // family's default sampling period, including a half-period
  // sensing-to-actuation delay. Sweep the generator's parameter box
  // corners plus its center.
  using catsched::control::discretize_interval;
  using catsched::control::family_default_period;
  using catsched::control::family_timescale;
  using catsched::control::is_controllable;
  using catsched::control::kAllPlantFamilies;
  using catsched::control::make_family_plant;
  using catsched::control::plant_family_name;

  const double w0s[] = {80.0, 165.0, 250.0};     // generator min/mid/max
  const double zetas[] = {0.15, 0.325, 0.5};
  const double gains[] = {1.0, 5.5, 10.0};
  for (const auto family : kAllPlantFamilies) {
    for (const double w0 : w0s) {
      for (const double zeta : zetas) {
        for (const double gain : gains) {
          SCOPED_TRACE(std::string(plant_family_name(family)) + " w0=" +
                       std::to_string(w0) + " zeta=" + std::to_string(zeta) +
                       " gain=" + std::to_string(gain));
          const ContinuousLTI plant =
              make_family_plant(family, w0, zeta, gain);
          EXPECT_TRUE(is_controllable(plant.a, plant.b));

          const double h = family_default_period(family, w0, zeta);
          ASSERT_GT(h, 0.0);
          EXPECT_LT(h, family_timescale(family, w0, zeta));
          const auto pd = discretize_interval(plant, h, h / 2.0);
          EXPECT_TRUE(is_controllable(pd.ad, pd.btot));
          // And with the full interval consumed by sensing (tau == h, so
          // only the held input acts): still controllable through b1.
          const auto lagged = discretize_interval(plant, h, h);
          EXPECT_TRUE(is_controllable(lagged.ad, lagged.b1));
        }
      }
    }
  }
}

TEST(PlantFamilies, NonIntegratingFamiliesHoldAUnitEquilibrium) {
  using catsched::control::equilibrium_at;
  using catsched::control::make_family_plant;
  using catsched::control::PlantFamily;
  // The step-response scenarios regulate to y = r; the families meant to
  // have finite DC gain must admit that equilibrium (the integrating one
  // holds any y with u = 0 instead).
  for (const auto family : {PlantFamily::underdamped_second_order,
                            PlantFamily::first_order_lag,
                            PlantFamily::resonant_with_actuator_lag}) {
    const ContinuousLTI plant = make_family_plant(family, 120.0, 0.3, 4.0);
    const auto eq = equilibrium_at(plant, 1.0);
    // DC gain is `gain`, so holding y = 1 needs u = 1 / gain.
    EXPECT_NEAR(eq.u, 0.25, 1e-9);
  }
  const ContinuousLTI integ = make_family_plant(
      PlantFamily::damped_integrator, 120.0, 0.3, 4.0);
  const auto eq = equilibrium_at(integ, 1.0);
  EXPECT_NEAR(eq.u, 0.0, 1e-9);
}

TEST(PlantFamilies, TimescaleShrinksWithFrequencyAndPeriodIsAFraction) {
  using catsched::control::family_default_period;
  using catsched::control::family_timescale;
  using catsched::control::kAllPlantFamilies;
  for (const auto family : kAllPlantFamilies) {
    const double slow = family_timescale(family, 80.0, 0.3);
    const double fast = family_timescale(family, 250.0, 0.3);
    EXPECT_GT(slow, fast);
    EXPECT_GT(fast, 0.0);
    EXPECT_NEAR(family_default_period(family, 80.0, 0.3), slow / 40.0,
                1e-12 * slow);
  }
}

TEST(PlantFamilies, RejectsDegenerateParameters) {
  using catsched::control::make_family_plant;
  using catsched::control::PlantFamily;
  EXPECT_THROW(
      make_family_plant(PlantFamily::first_order_lag, 0.0, 0.3, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      make_family_plant(PlantFamily::first_order_lag, -5.0, 0.3, 1.0),
      std::invalid_argument);
  EXPECT_THROW(
      make_family_plant(PlantFamily::underdamped_second_order, 100.0, -0.1,
                        1.0),
      std::invalid_argument);
  EXPECT_THROW(
      make_family_plant(PlantFamily::damped_integrator, 100.0, 0.3, 0.0),
      std::invalid_argument);
}

}  // namespace
