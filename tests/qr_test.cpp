#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "stats/rng.hpp"

namespace bmf::linalg {
namespace {

TEST(HouseholderQR, SolvesSquareSystem) {
  Matrix a{{2, 1}, {1, 3}};
  HouseholderQR qr(a);
  Vector x = qr.solve({5, 10});
  // Exact solution of [[2,1],[1,3]] x = [5,10] is x = (1, 3).
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(HouseholderQR, LeastSquaresMinimizesResidual) {
  // Overdetermined: fit a line to 4 points.
  Matrix a{{1, 0}, {1, 1}, {1, 2}, {1, 3}};
  Vector b{1, 3, 5, 7};  // exactly b = 1 + 2t
  Vector x = HouseholderQR(a).solve(b);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(HouseholderQR, ResidualOrthogonalToColumnSpan) {
  stats::Rng rng(7);
  Matrix a(20, 5);
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 5; ++j) a(i, j) = rng.normal();
  Vector b = rng.normal_vector(20);
  Vector x = HouseholderQR(a).solve(b);
  Vector r = sub(b, gemv(a, x));
  Vector atr = gemv_t(a, r);
  EXPECT_LT(norm_inf(atr), 1e-10);
}

TEST(HouseholderQR, RFactorIsUpperTriangularAndConsistent) {
  stats::Rng rng(11);
  Matrix a(8, 4);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = rng.normal();
  HouseholderQR qr(a);
  Matrix r = qr.r();
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  // R^T R must equal A^T A (both are the Cholesky Gram of A, up to signs).
  Matrix rtr = gemm_tn(r, r);
  Matrix ata = gram(a);
  EXPECT_LT(max_abs_diff(rtr, ata), 1e-10);
}

TEST(HouseholderQR, UnderdeterminedThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(HouseholderQR{a}, std::invalid_argument);
}

TEST(HouseholderQR, SingularSolveThrows) {
  Matrix a{{1, 1}, {1, 1}, {1, 1}};
  HouseholderQR qr(a);
  EXPECT_THROW(qr.solve({1, 2, 3}), std::runtime_error);
}

TEST(HouseholderQR, PivotRatioDetectsConditioning) {
  Matrix good{{1, 0}, {0, 1}, {0, 0}};
  EXPECT_GT(HouseholderQR(good).min_max_pivot_ratio(), 0.5);
  Matrix bad{{1, 1}, {1, 1.0 + 1e-13}, {0, 0}};
  EXPECT_LT(HouseholderQR(bad).min_max_pivot_ratio(), 1e-10);
}

TEST(IncrementalQR, MatchesBatchLeastSquares) {
  stats::Rng rng(3);
  const std::size_t m = 30, n = 6;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
  Vector b = rng.normal_vector(m);

  IncrementalQR iqr(b);
  for (std::size_t j = 0; j < n; ++j)
    ASSERT_TRUE(iqr.append_column(a.col(j)));
  Vector x_inc = iqr.solve(n);
  Vector x_batch = HouseholderQR(a).solve(b);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(x_inc[j], x_batch[j], 1e-9);
}

TEST(IncrementalQR, RejectsDependentColumn) {
  IncrementalQR iqr({1, 2, 3});
  ASSERT_TRUE(iqr.append_column({1, 0, 0}));
  ASSERT_TRUE(iqr.append_column({1, 1, 0}));
  EXPECT_FALSE(iqr.append_column({2, 1, 0}));  // in the span
  EXPECT_THROW(iqr.solve(3), std::invalid_argument);  // still 2 columns
  EXPECT_TRUE(iqr.append_column({0, 0, 1}));
  EXPECT_EQ(iqr.solve(3).size(), 3u);
}

TEST(IncrementalQR, PrefixSolveIsFixedOnceAppended) {
  // solve(n) after later appends returns, bit for bit, what it returned
  // when n columns had been appended.
  stats::Rng rng(7);
  IncrementalQR iqr(rng.normal_vector(20));
  std::vector<Vector> then;
  for (std::size_t n = 1; n <= 6; ++n) {
    ASSERT_TRUE(iqr.append_column(rng.normal_vector(20)));
    then.push_back(iqr.solve(n));
  }
  for (std::size_t n = 1; n <= 6; ++n) EXPECT_EQ(iqr.solve(n), then[n - 1]);
}

TEST(IncrementalQR, ResidualOrthogonalToColumns) {
  stats::Rng rng(5);
  Vector b = rng.normal_vector(10);
  IncrementalQR iqr(b);
  EXPECT_EQ(iqr.residual(), b);  // no columns yet
  std::vector<Vector> cols;
  for (int j = 0; j < 4; ++j) {
    cols.push_back(rng.normal_vector(10));
    ASSERT_TRUE(iqr.append_column(cols.back()));
    // The running residual stays orthogonal to every column so far.
    for (const auto& c : cols) EXPECT_NEAR(dot(c, iqr.residual()), 0.0, 1e-10);
  }
}

TEST(IncrementalQR, ProjectGivesQtB) {
  // One column (3, 4) = 5 * (0.6, 0.8): Q^T b = 3 for b = (5, 0), so the
  // coefficient is 3 / 5 and the residual b - 3 q.
  IncrementalQR iqr({5, 0});
  ASSERT_TRUE(iqr.append_column({3, 4}));
  const Vector x = iqr.solve(1);
  ASSERT_EQ(x.size(), 1u);
  EXPECT_NEAR(x[0], 0.6, 1e-12);
  EXPECT_NEAR(iqr.residual()[0], 5.0 - 3.0 * 0.6, 1e-12);
  EXPECT_NEAR(iqr.residual()[1], -3.0 * 0.8, 1e-12);
}

TEST(IncrementalQR, SizeMismatchThrows) {
  IncrementalQR iqr({1, 2, 3});
  EXPECT_THROW(iqr.append_column({1, 2}), std::invalid_argument);
}

}  // namespace
}  // namespace bmf::linalg
