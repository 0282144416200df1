/// \file test_svd.cpp
/// \brief SVD tests: reconstruction, orthonormality and known spectra on
///        random and structured matrices.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/svd.hpp"

namespace {

using catsched::linalg::Matrix;
using catsched::linalg::svd;
using catsched::linalg::Svd;

Matrix random_matrix(std::mt19937& rng, std::size_t r, std::size_t c,
                     double scale = 1.0) {
  std::uniform_real_distribution<double> dist(-scale, scale);
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = dist(rng);
  }
  return m;
}

Matrix reconstruct(const Svd& d) {
  Matrix s = Matrix::zero(d.sigma.size(), d.sigma.size());
  for (std::size_t i = 0; i < d.sigma.size(); ++i) s(i, i) = d.sigma[i];
  return d.u * s * d.v.transposed();
}

bool has_orthonormal_columns(const Matrix& m, double tol = 1e-9) {
  const Matrix g = m.transposed() * m;
  for (std::size_t i = 0; i < g.rows(); ++i) {
    for (std::size_t j = 0; j < g.cols(); ++j) {
      const double want = (i == j) ? 1.0 : 0.0;
      if (std::abs(g(i, j) - want) > tol) return false;
    }
  }
  return true;
}

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

class SvdShapeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(SvdShapeSweep, ReconstructsAndIsOrthonormal) {
  std::mt19937 rng(GetParam().rows * 31 + GetParam().cols);
  const Matrix a = random_matrix(rng, GetParam().rows, GetParam().cols, 2.0);
  const Svd d = svd(a);
  ASSERT_EQ(d.sigma.size(), std::min(a.rows(), a.cols()));
  EXPECT_TRUE(catsched::linalg::approx_equal(reconstruct(d), a, 1e-8));
  EXPECT_TRUE(has_orthonormal_columns(d.u));
  EXPECT_TRUE(has_orthonormal_columns(d.v));
  for (std::size_t i = 0; i + 1 < d.sigma.size(); ++i) {
    EXPECT_GE(d.sigma[i], d.sigma[i + 1]);  // sorted descending
  }
  for (double s : d.sigma) EXPECT_GE(s, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapeSweep,
                         ::testing::Values(Shape{1, 1}, Shape{2, 2},
                                           Shape{3, 3}, Shape{5, 5},
                                           Shape{4, 2}, Shape{2, 4},
                                           Shape{7, 3}, Shape{3, 7},
                                           Shape{8, 8}, Shape{1, 6},
                                           Shape{6, 1}));

TEST(Svd, DiagonalMatrixSpectrumIsAbsoluteDiagonal) {
  const Matrix a = Matrix::diagonal({3.0, -5.0, 0.0, 1.0});
  const auto s = svd(a).sigma;
  ASSERT_EQ(s.size(), 4u);
  EXPECT_NEAR(s[0], 5.0, 1e-12);
  EXPECT_NEAR(s[1], 3.0, 1e-12);
  EXPECT_NEAR(s[2], 1.0, 1e-12);
  EXPECT_NEAR(s[3], 0.0, 1e-12);
}

TEST(Svd, Norm2MatchesKnownValue) {
  // [[3,0],[4,0]] has sigma = {5, 0}.
  const Matrix a{{3.0, 0.0}, {4.0, 0.0}};
  EXPECT_NEAR(svd(a).norm2(), 5.0, 1e-12);
}

}  // namespace
