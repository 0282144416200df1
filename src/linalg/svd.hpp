#pragma once
/// \file svd.hpp
/// \brief Singular value decomposition via one-sided Jacobi rotations.
///        Chosen over Golub-Kahan bidiagonalization for its simplicity and
///        unconditional robustness on the small matrices this library
///        manipulates. The joint spectral radius bound (control/jsr) takes
///        2-norms of lifted monodromy products from it.

#include <vector>

#include "linalg/matrix.hpp"

namespace catsched::linalg {

/// A = U * diag(sigma) * V^T with U (m x k), V (n x k), k = min(m, n),
/// sigma sorted descending, all sigma >= 0.
struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;

  /// Largest singular value (0 for an empty matrix).
  double norm2() const noexcept { return sigma.empty() ? 0.0 : sigma.front(); }
};

/// Compute the thin SVD of any rectangular matrix.
/// \throws std::runtime_error if Jacobi sweeps fail to converge (does not
///         happen for finite inputs within the generous sweep cap).
Svd svd(const Matrix& a);

}  // namespace catsched::linalg
