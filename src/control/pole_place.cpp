#include "control/pole_place.hpp"

#include <stdexcept>
#include <vector>

#include "control/lti.hpp"
#include "linalg/lu.hpp"
#include "linalg/poly.hpp"

namespace catsched::control {

Matrix place_poles(const Matrix& a, const Matrix& b,
                   const std::vector<std::complex<double>>& poles) {
  if (!a.is_square() || b.rows() != a.rows() || b.cols() != 1) {
    throw std::invalid_argument("place_poles: bad dimensions");
  }
  const std::size_t l = a.rows();
  if (poles.size() != l) {
    throw std::invalid_argument("place_poles: need exactly l poles");
  }
  const Matrix ctrb = controllability_matrix(a, b);
  linalg::LU lu(ctrb);
  if (lu.singular()) {
    throw std::domain_error("place_poles: (A, B) not controllable");
  }
  // Ackermann: K_neg = e_l^T Ctrb^{-1} phi(A) yields poles of A - B K_neg.
  // The paper's convention is u = K x, closed loop A + B K, so K = -K_neg.
  const linalg::Poly phi = linalg::poly_from_roots(poles);
  const Matrix phi_a = linalg::poly_eval(phi, a);
  // Solve Ctrb^T w = e_l, then K_neg = w^T phi(A).
  Matrix e_l(l, 1);
  e_l(l - 1, 0) = 1.0;
  const Matrix w = linalg::LU(ctrb.transposed()).solve(e_l);
  const Matrix k_neg = w.transposed() * phi_a;
  return -k_neg;
}

}  // namespace catsched::control
