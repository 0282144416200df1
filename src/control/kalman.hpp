#pragma once
/// \file kalman.hpp
/// \brief Steady-state and periodic Kalman filtering for the switched
///        schedule-induced dynamics: the stochastic counterpart of the
///        Luenberger observer in observer.hpp. Where the Luenberger design
///        picks error poles, the Kalman gain minimizes the steady-state
///        error covariance under process/measurement noise -- and for the
///        periodic system the filter Riccati recursion converges to a
///        periodic covariance, one gain per phase.

#include <cstdint>
#include <vector>

#include "control/c2d.hpp"
#include "control/lqr.hpp"
#include "linalg/matrix.hpp"

namespace catsched::control {

/// Steady-state (predictor-form) Kalman filter for x+ = A x + w,
/// y = C x + v, with w ~ (0, Q), v ~ (0, R):
///   xhat+ = A xhat + B u + L (y - C xhat),  L = A P C^T (C P C^T + R)^{-1},
/// P the stabilizing solution of the filter DARE.
struct KalmanResult {
  Matrix l;  ///< predictor gain (n x q)
  Matrix p;  ///< steady-state prediction error covariance
  bool converged = false;
  int iterations = 0;
};

/// Solve the filter DARE by covariance iteration.
/// \throws std::invalid_argument on dimension mismatch,
///         std::domain_error if the innovation covariance turns singular.
KalmanResult kalman_predictor(const Matrix& a, const Matrix& c,
                              const Matrix& q, const Matrix& r,
                              const RiccatiOptions& opts = {});

/// Periodic Kalman filter for the switched phases: per-phase gains L_j and
/// periodic covariances P_j from the cyclic filter Riccati recursion
///   P_{j+1} = A_j (P_j - P_j C^T (C P_j C^T + R)^{-1} C P_j) A_j^T + Q.
struct PeriodicKalmanResult {
  std::vector<Matrix> l;  ///< one predictor gain per phase
  std::vector<Matrix> p;  ///< covariance at the start of each phase
  bool converged = false;
  int sweeps = 0;
};

/// \throws std::invalid_argument if phases empty or dimensions disagree.
PeriodicKalmanResult periodic_kalman(const std::vector<PhaseDynamics>& phases,
                                     const Matrix& c, const Matrix& q,
                                     const Matrix& r,
                                     const RiccatiOptions& opts = {});

/// Noisy closed-loop simulation: the switched plant driven by per-phase
/// state feedback on the *Kalman estimate*, with additive Gaussian process
/// and measurement noise (deterministic seed).
struct NoisySimOptions {
  double process_std = 0.0;      ///< per-state process noise sigma
  double measurement_std = 0.0;  ///< output noise sigma
  std::uint32_t seed = 1;
  std::size_t steps = 2000;      ///< sampling instants to simulate
};

struct NoisySimResult {
  double rms_estimation_error = 0.0;  ///< sqrt(mean ||x - xhat||^2)
  double rms_output_error = 0.0;      ///< sqrt(mean (y - r)^2), r = 0 here
  double max_estimation_error = 0.0;
};

/// Regulation (r = 0) from a random initial state; reports estimation and
/// output RMS errors. Used to compare Kalman vs Luenberger gains under
/// noise: pass either gain set. A zero sigma turns its noise channel off.
/// \throws std::invalid_argument on count/dimension mismatch or a negative
///         (or NaN) noise sigma.
NoisySimResult simulate_noisy_regulation(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& state_feedback,  ///< per-phase K (u = K xhat)
    const std::vector<Matrix>& estimator_gains, ///< per-phase L
    const NoisySimOptions& opts = {});

}  // namespace catsched::control
