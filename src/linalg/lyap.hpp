#pragma once
/// \file lyap.hpp
/// \brief Discrete Lyapunov and Stein equation solvers for small dense
///        systems, via Kronecker-product linearization. The Stein solver
///        evaluates the infinite-horizon quadratic cost of a lifted periodic
///        loop (control/lqr).
///
/// Systems in this library are small (a few states; lifted periodic systems
/// a few dozen), so the O(n^6) Kronecker route is both simple and fast
/// enough; it avoids the numerical subtleties of Bartels-Stewart on
/// hand-rolled Schur factorizations.

#include "linalg/matrix.hpp"

namespace catsched::linalg {

/// Kronecker product A (x) B: (ra*rb) x (ca*cb).
Matrix kron(const Matrix& a, const Matrix& b);

/// Column-major vectorization vec(A): stacks columns into one long vector.
Matrix vec(const Matrix& a);

/// Inverse of vec: reshape a (rows*cols) x 1 vector into rows x cols
/// (column-major). \throws std::invalid_argument on size mismatch.
Matrix unvec(const Matrix& v, std::size_t rows, std::size_t cols);

/// Solve the discrete-time Lyapunov equation
///   A X A^T - X + Q = 0.
/// A unique solution exists iff no two eigenvalues of A satisfy
/// lambda_i * lambda_j = 1 (in particular, whenever A is Schur stable).
/// \throws std::invalid_argument on dimension mismatch,
///         std::domain_error if the equation is singular.
Matrix solve_discrete_lyapunov(const Matrix& a, const Matrix& q);

/// Solve the discrete ("Stein") Sylvester equation A X B - X + C = 0.
/// \throws std::invalid_argument / std::domain_error as above.
Matrix solve_stein(const Matrix& a, const Matrix& b, const Matrix& c);

}  // namespace catsched::linalg
