#pragma once
/// \file eig.hpp
/// \brief Eigenvalues of real dense matrices via balancing, Householder
///        Hessenberg reduction and the Francis implicit double-shift QR
///        iteration. Used for closed-loop stability (spectral radius) and
///        pole verification.

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace catsched::linalg {

/// Reduce a square matrix to upper Hessenberg form by orthogonal
/// (Householder) similarity. Eigenvalues are preserved.
/// \throws std::invalid_argument if not square.
Matrix hessenberg(const Matrix& a);

/// In-place Parlett–Reinsch balancing (diagonal similarity) to improve
/// eigenvalue accuracy. Eigenvalues are preserved.
void balance(Matrix& a);

/// All eigenvalues of a real square matrix, complex-conjugate pairs
/// adjacent. Deterministic ordering (by deflation order).
/// \throws std::invalid_argument if not square,
///         std::runtime_error if QR iteration fails to converge.
std::vector<std::complex<double>> eigenvalues(const Matrix& a);

/// max |lambda_i| over all eigenvalues; 0 for an empty matrix, +inf when
/// an eigenvalue is NaN.
double spectral_radius(const Matrix& a);

/// True if every eigenvalue lies strictly inside the unit circle with the
/// given margin, i.e. spectral_radius(a) < 1 - margin.
bool is_schur_stable(const Matrix& a, double margin = 0.0);

}  // namespace catsched::linalg
