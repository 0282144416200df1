#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

namespace catsched::linalg {

Svd svd(const Matrix& a) {
  // One-sided Jacobi on the columns of W (a copy of A, transposed if m < n
  // so that the working matrix is tall). Rotations orthogonalize column
  // pairs; on convergence the column norms are the singular values.
  const bool transposed = a.rows() < a.cols();
  Matrix w = transposed ? a.transposed() : a;
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();

  Matrix v = Matrix::identity(n);
  if (n == 0 || m == 0) {
    Svd out;
    out.u = Matrix(a.rows(), 0);
    out.v = Matrix(a.cols(), 0);
    return out;
  }

  const double eps = std::numeric_limits<double>::epsilon();
  constexpr int kMaxSweeps = 60;
  bool converged = false;
  for (int sweep = 0; sweep < kMaxSweeps && !converged; ++sweep) {
    converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          app += w(i, p) * w(i, p);
          aqq += w(i, q) * w(i, q);
          apq += w(i, p) * w(i, q);
        }
        if (std::abs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        converged = false;
        // Jacobi rotation zeroing the (p,q) entry of W^T W.
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0)
                             ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                             : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double wp = w(i, p);
          const double wq = w(i, q);
          w(i, p) = c * wp - s * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vp = v(i, p);
          const double vq = v(i, q);
          v(i, p) = c * vp - s * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
  }
  if (!converged) {
    throw std::runtime_error("svd: Jacobi sweeps did not converge");
  }

  // Column norms -> singular values; normalize columns of W into U.
  std::vector<double> sig(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    double s2 = 0.0;
    for (std::size_t i = 0; i < m; ++i) s2 += w(i, j) * w(i, j);
    sig[j] = std::sqrt(s2);
  }
  // Sort descending, permuting U and V columns accordingly.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return sig[i] > sig[j]; });

  const std::size_t k = std::min(m, n);
  Matrix u(m, k);
  Matrix vperm(n, k);
  std::vector<double> sorted(k, 0.0);
  for (std::size_t jj = 0; jj < k; ++jj) {
    const std::size_t j = order[jj];
    sorted[jj] = sig[j];
    const double inv = sig[j] > 0.0 ? 1.0 / sig[j] : 0.0;
    for (std::size_t i = 0; i < m; ++i) u(i, jj) = w(i, j) * inv;
    for (std::size_t i = 0; i < n; ++i) vperm(i, jj) = v(i, j);
  }

  Svd out;
  out.sigma = std::move(sorted);
  if (transposed) {
    out.u = std::move(vperm);  // U of A = V of A^T
    out.v = std::move(u);
  } else {
    out.u = std::move(u);
    out.v = std::move(vperm);
  }
  return out;
}

}  // namespace catsched::linalg
