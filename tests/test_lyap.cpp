/// \file test_lyap.cpp
/// \brief Discrete Lyapunov and Stein solver tests: residual properties on
///        random stable matrices, known closed forms, and failure modes.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/eig.hpp"
#include "linalg/lyap.hpp"

namespace {

using catsched::linalg::kron;
using catsched::linalg::Matrix;
using catsched::linalg::solve_discrete_lyapunov;
using catsched::linalg::solve_stein;
using catsched::linalg::unvec;
using catsched::linalg::vec;

Matrix random_matrix(std::mt19937& rng, std::size_t n, double scale) {
  std::uniform_real_distribution<double> dist(-scale, scale);
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = dist(rng);
  }
  return m;
}

/// Scale a random matrix until Schur-stable (spectral radius < 0.9).
Matrix random_stable(std::mt19937& rng, std::size_t n) {
  Matrix m = random_matrix(rng, n, 1.0);
  const double rho = catsched::linalg::spectral_radius(m);
  if (rho > 0.0) m *= 0.9 / (rho * 1.05);
  return m;
}

Matrix random_spd(std::mt19937& rng, std::size_t n) {
  const Matrix g = random_matrix(rng, n, 1.0);
  Matrix q = g * g.transposed();
  for (std::size_t i = 0; i < n; ++i) q(i, i) += 0.1;
  return q;
}

TEST(Kron, MatchesHandComputedExample) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{0, 5}, {6, 7}};
  const Matrix k = kron(a, b);
  ASSERT_EQ(k.rows(), 4u);
  ASSERT_EQ(k.cols(), 4u);
  EXPECT_DOUBLE_EQ(k(0, 1), 5.0);    // 1 * b(0,1)
  EXPECT_DOUBLE_EQ(k(1, 0), 6.0);    // 1 * b(1,0)
  EXPECT_DOUBLE_EQ(k(0, 3), 10.0);   // 2 * b(0,1)
  EXPECT_DOUBLE_EQ(k(3, 1), 21.0);   // 3 * b(1,1)
  EXPECT_DOUBLE_EQ(k(2, 2), 0.0);    // 4 * b(0,0)
  EXPECT_DOUBLE_EQ(k(3, 3), 28.0);   // 4 * b(1,1)
}

TEST(Kron, MixedProductProperty) {
  std::mt19937 rng(7);
  const Matrix a = random_matrix(rng, 3, 1.0);
  const Matrix b = random_matrix(rng, 2, 1.0);
  const Matrix c = random_matrix(rng, 3, 1.0);
  const Matrix d = random_matrix(rng, 2, 1.0);
  // (A (x) B)(C (x) D) = (AC) (x) (BD).
  EXPECT_TRUE(catsched::linalg::approx_equal(kron(a, b) * kron(c, d),
                                             kron(a * c, b * d), 1e-9));
}

TEST(Vec, RoundTripsThroughUnvec) {
  std::mt19937 rng(11);
  const Matrix a = random_matrix(rng, 4, 2.0);
  const Matrix v = vec(a);
  ASSERT_EQ(v.rows(), 16u);
  EXPECT_TRUE(catsched::linalg::approx_equal(unvec(v, 4, 4), a, 0.0));
}

TEST(Vec, KroneckerIdentityHolds) {
  std::mt19937 rng(13);
  const Matrix a = random_matrix(rng, 3, 1.0);
  const Matrix x = random_matrix(rng, 3, 1.0);
  const Matrix b = random_matrix(rng, 3, 1.0);
  // vec(A X B) = (B^T (x) A) vec(X).
  EXPECT_TRUE(catsched::linalg::approx_equal(
      vec(a * x * b), kron(b.transposed(), a) * vec(x), 1e-9));
}

class DiscreteLyapunovSweep : public ::testing::TestWithParam<int> {};

TEST_P(DiscreteLyapunovSweep, ResidualVanishesAndSolutionSymmetricPsd) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 5;
  const Matrix a = random_stable(rng, n);
  const Matrix q = random_spd(rng, n);
  const Matrix x = solve_discrete_lyapunov(a, q);

  const Matrix residual = a * x * a.transposed() - x + q;
  EXPECT_LT(residual.max_abs(), 1e-8 * (1.0 + x.max_abs()));
  EXPECT_TRUE(catsched::linalg::approx_equal(x, x.transposed(), 1e-8));
  // X = sum A^k Q (A^T)^k with Q SPD => X SPD => positive diagonal.
  for (std::size_t i = 0; i < n; ++i) EXPECT_GT(x(i, i), 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomStable, DiscreteLyapunovSweep,
                         ::testing::Range(0, 12));

TEST(DiscreteLyapunov, MatchesSeriesSumForScalar) {
  // a = 1/2, q = 3: X = q / (1 - a^2) = 4.
  const Matrix a{{0.5}};
  const Matrix q{{3.0}};
  const Matrix x = solve_discrete_lyapunov(a, q);
  EXPECT_NEAR(x(0, 0), 4.0, 1e-12);
}

TEST(DiscreteLyapunov, ThrowsOnUnitEigenvaluePair) {
  const Matrix a{{1.0, 0.0}, {0.0, 0.5}};  // lambda1 * lambda1 = 1
  const Matrix q = Matrix::identity(2);
  EXPECT_THROW(solve_discrete_lyapunov(a, q), std::domain_error);
}

TEST(DiscreteLyapunov, ThrowsOnDimensionMismatch) {
  EXPECT_THROW(
      solve_discrete_lyapunov(Matrix::identity(2), Matrix::identity(3)),
      std::invalid_argument);
}

TEST(Stein, SolvesRandomSystemAndMatchesLyapunovSpecialCase) {
  std::mt19937 rng(17);
  const Matrix a = random_stable(rng, 3);
  const Matrix q = random_spd(rng, 3);
  // Stein with B = A^T and C = Q reduces to the discrete Lyapunov equation.
  const Matrix x1 = solve_stein(a, a.transposed(), q);
  const Matrix x2 = solve_discrete_lyapunov(a, q);
  EXPECT_TRUE(catsched::linalg::approx_equal(x1, x2, 1e-8));
  EXPECT_LT((a * x1 * a.transposed() - x1 + q).max_abs(), 1e-8);
}

}  // namespace
