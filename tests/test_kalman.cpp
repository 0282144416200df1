/// \file test_kalman.cpp
/// \brief Kalman filter tests: scalar filter-DARE closed form, stability of
///        the predictor error dynamics, periodic filter vs stationary
///        limit, noise-dependence of the gain, and the Kalman-vs-Luenberger
///        comparison under noise (Kalman must win on its own turf).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "control/c2d.hpp"
#include "control/kalman.hpp"
#include "control/observer.hpp"
#include "linalg/eig.hpp"

namespace {

using catsched::control::ContinuousLTI;
using catsched::control::design_switched_observer;
using catsched::control::discretize_interval;
using catsched::control::discretize_phases;
using catsched::control::kalman_predictor;
using catsched::control::NoisySimOptions;
using catsched::control::periodic_kalman;
using catsched::control::simulate_noisy_regulation;
using catsched::linalg::Matrix;
using catsched::sched::Interval;

/// Scalar filter DARE p = a^2 p - a^2 p^2 c^2/(c^2 p + r) + q has the same
/// closed form as the control DARE with (a, c) in place of (a, b).
double scalar_filter_dare(double a, double c, double q, double r) {
  const double aa = c * c;
  const double bb = r - a * a * r - c * c * q;
  const double cc = -q * r;
  return (-bb + std::sqrt(bb * bb - 4.0 * aa * cc)) / (2.0 * aa);
}

TEST(Kalman, MatchesScalarClosedForm) {
  const double a = 0.9, c = 1.0, q = 0.2, r = 0.5;
  const auto res = kalman_predictor(Matrix{{a}}, Matrix{{c}}, Matrix{{q}},
                                    Matrix{{r}});
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.p(0, 0), scalar_filter_dare(a, c, q, r), 1e-9);
  const double p = res.p(0, 0);
  EXPECT_NEAR(res.l(0, 0), a * p * c / (c * p * c + r), 1e-9);
}

TEST(Kalman, ErrorDynamicsAreSchurStable) {
  // Unstable plant, observable output: the filter must stabilize A - L C.
  const Matrix a{{1.1, 0.2}, {0.0, 0.95}};
  const Matrix c{{1.0, 0.0}};
  const auto res = kalman_predictor(a, c, 0.1 * Matrix::identity(2),
                                    Matrix{{0.2}});
  ASSERT_TRUE(res.converged);
  EXPECT_LT(catsched::linalg::spectral_radius(a - res.l * c), 1.0);
  // Covariance is symmetric PSD.
  EXPECT_TRUE(catsched::linalg::approx_equal(res.p, res.p.transposed(),
                                             1e-9));
  EXPECT_GE(res.p(0, 0), 0.0);
  EXPECT_GE(res.p(1, 1), 0.0);
}

TEST(Kalman, NoisierMeasurementsShrinkTheGain) {
  const Matrix a{{0.98, 0.1}, {0.0, 0.9}};
  const Matrix c{{1.0, 0.0}};
  const Matrix q = 0.05 * Matrix::identity(2);
  const auto trusting = kalman_predictor(a, c, q, Matrix{{0.01}});
  const auto skeptical = kalman_predictor(a, c, q, Matrix{{10.0}});
  ASSERT_TRUE(trusting.converged);
  ASSERT_TRUE(skeptical.converged);
  EXPECT_GT(trusting.l.norm(), skeptical.l.norm());
}

TEST(Kalman, ThrowsOnSingularInnovationWithoutNoise) {
  // r = 0 and q = 0 gives a singular innovation covariance immediately
  // for c = 0 (unobservable, no noise): expect a domain error.
  const Matrix a{{1.0}};
  const Matrix c{{0.0}};
  EXPECT_THROW(
      kalman_predictor(a, c, Matrix{{0.0}}, Matrix{{0.0}}),
      std::domain_error);
}

TEST(PeriodicKalman, IdenticalPhasesReduceToStationary) {
  ContinuousLTI plant;
  plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
  plant.b = Matrix{{0.0}, {200.0}};
  plant.c = Matrix{{1.0, 0.0}};
  const auto ph = discretize_interval(plant, 0.01, 0.01);
  const Matrix q = 0.01 * Matrix::identity(2);
  const Matrix r{{0.1}};
  const auto stat = kalman_predictor(ph.ad, plant.c, q, r);
  const std::vector<catsched::control::PhaseDynamics> phases(3, ph);
  const auto peri = periodic_kalman(phases, plant.c, q, r);
  ASSERT_TRUE(peri.converged);
  for (const auto& l : peri.l) {
    EXPECT_TRUE(catsched::linalg::approx_equal(l, stat.l, 1e-7));
  }
}

TEST(PeriodicKalman, StabilizesSwitchedErrorMonodromy) {
  ContinuousLTI plant;
  plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
  plant.b = Matrix{{0.0}, {200.0}};
  plant.c = Matrix{{1.0, 0.0}};
  const std::vector<Interval> intervals = {{0.010, 0.010, false},
                                           {0.006, 0.006, true},
                                           {0.030, 0.006, true}};
  const auto phases = discretize_phases(plant, intervals);
  const auto res = periodic_kalman(phases, plant.c,
                                   0.01 * Matrix::identity(2), Matrix{{0.1}});
  ASSERT_TRUE(res.converged);
  Matrix mono = Matrix::identity(2);
  for (std::size_t j = 0; j < phases.size(); ++j) {
    mono = (phases[j].ad - res.l[j] * plant.c) * mono;
  }
  EXPECT_LT(catsched::linalg::spectral_radius(mono), 1.0);
}

TEST(NoisySim, KalmanBeatsLuenbergerUnderItsNoiseModel) {
  ContinuousLTI plant;
  plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
  plant.b = Matrix{{0.0}, {200.0}};
  plant.c = Matrix{{1.0, 0.0}};
  const std::vector<Interval> intervals = {{0.010, 0.010, false},
                                           {0.026, 0.006, true}};
  const auto phases = discretize_phases(plant, intervals);

  // A stabilizing (not optimized) regulation gain set, shared by both.
  std::vector<Matrix> k(phases.size(), Matrix{{-5.0, -0.05}});

  NoisySimOptions nopts;
  nopts.process_std = 0.02;
  nopts.measurement_std = 0.05;
  nopts.steps = 4000;
  nopts.seed = 3;

  const Matrix q = nopts.process_std * nopts.process_std *
                   Matrix::identity(2);
  const Matrix r{{nopts.measurement_std * nopts.measurement_std}};
  const auto kalman = periodic_kalman(phases, plant.c, q, r);
  ASSERT_TRUE(kalman.converged);
  const auto luen = design_switched_observer(phases, plant.c, 0.2);

  const auto res_kalman = simulate_noisy_regulation(phases, plant.c, k,
                                                    kalman.l, nopts);
  const auto res_luen =
      simulate_noisy_regulation(phases, plant.c, k, luen, nopts);
  // The Kalman gains are optimal for exactly this noise: strictly better
  // RMS estimation error (generous 5% slack guards numerical accidents).
  EXPECT_LT(res_kalman.rms_estimation_error,
            res_luen.rms_estimation_error * 1.05);
}

TEST(NoisySim, NoiselessRunDrivesErrorToZero) {
  ContinuousLTI plant;
  plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
  plant.b = Matrix{{0.0}, {200.0}};
  plant.c = Matrix{{1.0, 0.0}};
  const auto phases = discretize_phases(
      plant, {{0.010, 0.010, false}, {0.026, 0.006, true}});
  std::vector<Matrix> k(phases.size(), Matrix{{-5.0, -0.05}});
  const auto kalman = periodic_kalman(phases, plant.c,
                                      1e-4 * Matrix::identity(2),
                                      Matrix{{1e-4}});
  NoisySimOptions clean;
  clean.process_std = 0.0;
  clean.measurement_std = 0.0;
  clean.steps = 3000;
  const auto res =
      simulate_noisy_regulation(phases, plant.c, k, kalman.l, clean);
  EXPECT_LT(res.rms_estimation_error, 0.05);  // transient only
}

/// The two-phase plant, gains and Kalman predictor the noise tests share.
struct NoisyLoop {
  std::vector<catsched::control::PhaseDynamics> phases;
  Matrix c;
  std::vector<Matrix> k;
  std::vector<Matrix> l;
};

NoisyLoop noisy_loop() {
  ContinuousLTI plant;
  plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
  plant.b = Matrix{{0.0}, {200.0}};
  plant.c = Matrix{{1.0, 0.0}};
  NoisyLoop loop;
  loop.phases = discretize_phases(
      plant, {{0.010, 0.010, false}, {0.026, 0.006, true}});
  loop.c = plant.c;
  loop.k.assign(loop.phases.size(), Matrix{{-5.0, -0.05}});
  loop.l = periodic_kalman(loop.phases, plant.c, 1e-4 * Matrix::identity(2),
                           Matrix{{1e-4}})
               .l;
  return loop;
}

TEST(NoisySim, RejectsNegativeNoiseSigma) {
  const NoisyLoop loop = noisy_loop();
  NoisySimOptions bad_process;
  bad_process.process_std = -0.01;
  EXPECT_THROW(simulate_noisy_regulation(loop.phases, loop.c, loop.k, loop.l,
                                         bad_process),
               std::invalid_argument);
  NoisySimOptions bad_measurement;
  bad_measurement.measurement_std = -0.01;
  EXPECT_THROW(simulate_noisy_regulation(loop.phases, loop.c, loop.k, loop.l,
                                         bad_measurement),
               std::invalid_argument);
  NoisySimOptions nan_sigma;
  nan_sigma.process_std = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(simulate_noisy_regulation(loop.phases, loop.c, loop.k, loop.l,
                                         nan_sigma),
               std::invalid_argument);
}

TEST(NoisySim, ZeroSigmaChannelDrawsNothing) {
  // A measurement sigma of 1e-300 adds nothing representable to the
  // output, but still takes its draws from the shared generator; a zero
  // sigma takes none, so the process noise that follows sees different
  // draws and the two runs differ.
  const NoisyLoop loop = noisy_loop();
  NoisySimOptions zero;
  zero.process_std = 0.02;
  zero.measurement_std = 0.0;
  NoisySimOptions negligible = zero;
  negligible.measurement_std = 1e-300;
  const auto a =
      simulate_noisy_regulation(loop.phases, loop.c, loop.k, loop.l, zero);
  const auto b = simulate_noisy_regulation(loop.phases, loop.c, loop.k,
                                           loop.l, negligible);
  EXPECT_TRUE(std::isfinite(a.rms_estimation_error));
  EXPECT_NE(a.rms_estimation_error, b.rms_estimation_error);
  // Same draws again: the zero-sigma run is reproducible.
  const auto again =
      simulate_noisy_regulation(loop.phases, loop.c, loop.k, loop.l, zero);
  EXPECT_EQ(a.rms_estimation_error, again.rms_estimation_error);
}

TEST(NoisySim, RejectsMismatchedGainCounts) {
  ContinuousLTI plant;
  plant.a = Matrix{{0.0, 1.0}, {0.0, -10.0}};
  plant.b = Matrix{{0.0}, {200.0}};
  plant.c = Matrix{{1.0, 0.0}};
  const auto phases =
      discretize_phases(plant, {{0.010, 0.010, false}});
  const std::vector<Matrix> k(1, Matrix{{-5.0, -0.05}});
  const std::vector<Matrix> l;  // wrong count
  EXPECT_THROW(simulate_noisy_regulation(phases, plant.c, k, l, {}),
               std::invalid_argument);
}

}  // namespace
