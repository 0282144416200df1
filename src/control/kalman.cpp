#include "control/kalman.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"

namespace catsched::control {

namespace {

void check_filter_dims(const Matrix& a, const Matrix& c, const Matrix& q,
                       const Matrix& r, const char* who) {
  const std::size_t n = a.rows();
  const std::size_t m = c.rows();
  if (!a.is_square() || c.cols() != n || !q.is_square() || q.rows() != n ||
      !r.is_square() || r.rows() != m) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
}

/// One forward covariance step; returns (P_next, L) for the given P.
std::pair<Matrix, Matrix> filter_step(const Matrix& a, const Matrix& c,
                                      const Matrix& q, const Matrix& r,
                                      const Matrix& p) {
  const Matrix pct = p * c.transposed();
  const Matrix innov = c * pct + r;  // C P C^T + R
  linalg::LU lu(innov);
  if (lu.singular()) {
    throw std::domain_error(
        "kalman: innovation covariance is singular (add measurement noise)");
  }
  // L = A P C^T (C P C^T + R)^{-1}  (solve from the right via transposes).
  const Matrix gain_t = lu.solve((a * pct).transposed());
  const Matrix l = gain_t.transposed();
  Matrix p_next = a * p * a.transposed() -
                  l * innov * l.transposed() + q;
  p_next += p_next.transposed();
  p_next *= 0.5;
  return {p_next, l};
}

}  // namespace

KalmanResult kalman_predictor(const Matrix& a, const Matrix& c,
                              const Matrix& q, const Matrix& r,
                              const RiccatiOptions& opts) {
  check_filter_dims(a, c, q, r, "kalman_predictor");
  KalmanResult out;
  Matrix p = q;
  for (int it = 0; it < opts.max_iterations; ++it) {
    auto [p_next, l] = filter_step(a, c, q, r, p);
    const double delta = (p_next - p).max_abs();
    p = std::move(p_next);
    out.l = std::move(l);
    out.iterations = it + 1;
    if (delta <= opts.tol * (1.0 + p.max_abs())) {
      out.converged = true;
      break;
    }
  }
  out.p = std::move(p);
  return out;
}

PeriodicKalmanResult periodic_kalman(const std::vector<PhaseDynamics>& phases,
                                     const Matrix& c, const Matrix& q,
                                     const Matrix& r,
                                     const RiccatiOptions& opts) {
  if (phases.empty()) {
    throw std::invalid_argument("periodic_kalman: no phases");
  }
  for (const auto& ph : phases) {
    check_filter_dims(ph.ad, c, q, r, "periodic_kalman");
  }
  const std::size_t m = phases.size();
  PeriodicKalmanResult out;
  out.l.assign(m, Matrix{});
  out.p.assign(m, q);

  // Forward cyclic sweeps: P_j is the prediction covariance at the START of
  // phase j; the step through phase j produces P_{j+1 mod m} and L_j.
  for (int sweep = 0; sweep < opts.max_iterations; ++sweep) {
    double delta = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      auto [p_next, l] = filter_step(phases[j].ad, c, q, r, out.p[j]);
      const std::size_t nxt = (j + 1) % m;
      delta = std::max(delta, (p_next - out.p[nxt]).max_abs());
      out.p[nxt] = std::move(p_next);
      out.l[j] = std::move(l);
    }
    out.sweeps = sweep + 1;
    double scale = 1.0;
    for (const auto& p : out.p) scale = std::max(scale, p.max_abs());
    if (delta <= opts.tol * scale) {
      out.converged = true;
      break;
    }
  }
  return out;
}

NoisySimResult simulate_noisy_regulation(
    const std::vector<PhaseDynamics>& phases, const Matrix& c,
    const std::vector<Matrix>& state_feedback,
    const std::vector<Matrix>& estimator_gains, const NoisySimOptions& opts) {
  if (phases.empty() || state_feedback.size() != phases.size() ||
      estimator_gains.size() != phases.size()) {
    throw std::invalid_argument(
        "simulate_noisy_regulation: phase/gain count mismatch");
  }
  if (!(opts.process_std >= 0.0) || !(opts.measurement_std >= 0.0)) {
    throw std::invalid_argument(
        "simulate_noisy_regulation: negative noise sigma");
  }
  const std::size_t l = phases[0].ad.rows();
  std::mt19937 rng(opts.seed);
  // Unit normals scaled by sigma draw exactly what N(0, sigma) would; a
  // zero sigma draws nothing (a zero-stddev normal_distribution violates
  // its precondition).
  std::normal_distribution<double> w(0.0, 1.0);
  std::normal_distribution<double> v(0.0, 1.0);
  const auto noise_of = [&rng](std::normal_distribution<double>& unit,
                               double sigma) {
    return sigma == 0.0 ? 0.0 : unit(rng) * sigma;
  };
  std::normal_distribution<double> x0(0.0, 1.0);

  Matrix x(l, 1);
  for (std::size_t i = 0; i < l; ++i) x(i, 0) = x0(rng);
  Matrix xhat = Matrix::zero(l, 1);
  double u_prev = 0.0;

  NoisySimResult res;
  double sum_est2 = 0.0;
  double sum_y2 = 0.0;
  std::size_t j = 0;
  for (std::size_t k = 0; k < opts.steps; ++k) {
    const double y = (c * x)(0, 0) + noise_of(v, opts.measurement_std);
    const double u = (state_feedback[j] * xhat)(0, 0);
    const double innovation = y - (c * xhat)(0, 0);

    double err2 = 0.0;
    for (std::size_t i = 0; i < l; ++i) {
      const double d = x(i, 0) - xhat(i, 0);
      err2 += d * d;
    }
    sum_est2 += err2;
    res.max_estimation_error =
        std::max(res.max_estimation_error, std::sqrt(err2));
    const double y_clean = (c * x)(0, 0);
    sum_y2 += y_clean * y_clean;

    Matrix noise(l, 1);
    for (std::size_t i = 0; i < l; ++i) {
      noise(i, 0) = noise_of(w, opts.process_std);
    }
    const Matrix x_next = phases[j].ad * x + phases[j].b1 * u_prev +
                          phases[j].b2 * u + noise;
    xhat = phases[j].ad * xhat + phases[j].b1 * u_prev + phases[j].b2 * u +
           estimator_gains[j] * innovation;
    x = x_next;
    u_prev = u;
    j = (j + 1) % phases.size();
  }
  res.rms_estimation_error =
      std::sqrt(sum_est2 / static_cast<double>(opts.steps));
  res.rms_output_error = std::sqrt(sum_y2 / static_cast<double>(opts.steps));
  return res;
}

}  // namespace catsched::control
