#pragma once
/// \file pole_place.hpp
/// \brief Ackermann pole placement for single-input systems, in the paper's
///        sign convention u = K x (closed loop A + B K).

#include <complex>
#include <vector>

#include "linalg/matrix.hpp"

namespace catsched::control {

using linalg::Matrix;

/// Compute the feedback row vector K (1 x l) such that the closed-loop
/// matrix A + B K has the desired eigenvalues (Ackermann's formula; paper
/// Sec. III references [15]). The pole set must be closed under
/// conjugation and have exactly l entries.
/// \throws std::invalid_argument on dimension/pole-count mismatch,
///         std::domain_error if (A, B) is not controllable.
Matrix place_poles(const Matrix& a, const Matrix& b,
                   const std::vector<std::complex<double>>& poles);

}  // namespace catsched::control
