#include "linalg/lyap.hpp"

#include <stdexcept>
#include <string>

#include "linalg/lu.hpp"

namespace catsched::linalg {

Matrix kron(const Matrix& a, const Matrix& b) {
  const std::size_t ra = a.rows(), ca = a.cols();
  const std::size_t rb = b.rows(), cb = b.cols();
  Matrix out(ra * rb, ca * cb);
  for (std::size_t i = 0; i < ra; ++i) {
    for (std::size_t j = 0; j < ca; ++j) {
      const double aij = a(i, j);
      if (aij == 0.0) continue;
      for (std::size_t p = 0; p < rb; ++p) {
        for (std::size_t q = 0; q < cb; ++q) {
          out(i * rb + p, j * cb + q) = aij * b(p, q);
        }
      }
    }
  }
  return out;
}

Matrix vec(const Matrix& a) {
  Matrix v(a.rows() * a.cols(), 1);
  std::size_t k = 0;
  for (std::size_t j = 0; j < a.cols(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) v(k++, 0) = a(i, j);
  }
  return v;
}

Matrix unvec(const Matrix& v, std::size_t rows, std::size_t cols) {
  if (v.size() != rows * cols || !v.is_column()) {
    throw std::invalid_argument("unvec: size mismatch");
  }
  Matrix out(rows, cols);
  std::size_t k = 0;
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) out(i, j) = v(k++, 0);
  }
  return out;
}

namespace {

void require_square_same(const Matrix& a, const Matrix& q, const char* who) {
  if (!a.is_square() || !q.is_square() || a.rows() != q.rows()) {
    throw std::invalid_argument(std::string(who) +
                                ": A and Q must be square of equal size");
  }
}

/// Solve M x = rhs and report singularity as std::domain_error with a
/// solver-specific message.
Matrix checked_solve(const Matrix& m, const Matrix& rhs, const char* who) {
  LU lu(m);
  if (lu.singular()) {
    throw std::domain_error(std::string(who) + ": equation is singular");
  }
  return lu.solve(rhs);
}

}  // namespace

Matrix solve_discrete_lyapunov(const Matrix& a, const Matrix& q) {
  require_square_same(a, q, "solve_discrete_lyapunov");
  const std::size_t n = a.rows();
  // vec(A X A^T) = (A (x) A) vec(X);  (A(x)A - I) vec(X) = -vec(Q).
  Matrix m = kron(a, a);
  for (std::size_t i = 0; i < n * n; ++i) m(i, i) -= 1.0;
  const Matrix x = checked_solve(m, -vec(q), "solve_discrete_lyapunov");
  return unvec(x, n, n);
}

Matrix solve_stein(const Matrix& a, const Matrix& b, const Matrix& c) {
  if (!a.is_square() || !b.is_square() || c.rows() != a.rows() ||
      c.cols() != b.rows()) {
    throw std::invalid_argument("solve_stein: dimension mismatch");
  }
  const std::size_t n = a.rows(), m = b.rows();
  // vec(A X B) = (B^T (x) A) vec(X);  (B^T (x) A - I) vec(X) = -vec(C).
  Matrix lhs = kron(b.transposed(), a);
  for (std::size_t i = 0; i < n * m; ++i) lhs(i, i) -= 1.0;
  const Matrix x = checked_solve(lhs, -vec(c), "solve_stein");
  return unvec(x, n, m);
}

}  // namespace catsched::linalg
