#include "linalg/eigen_sym.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/blas.hpp"
#include "stats/rng.hpp"

namespace bmf::linalg {
namespace {

// The textbook tred2 + implicit QL that eigen_symmetric replaced, kept
// verbatim (column-walking loops and all) as the bitwise reference: the
// row-wise solver must run the same floating-point operations in the same
// order, so its output may not differ in a single bit.
namespace textbook {

void tridiagonalize(Matrix& a, Vector& d, Vector& e) {
  const std::size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 1;) {
    const std::size_t i = ii;
    const std::size_t l = i - 1;
    double h = 0.0, scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (std::size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (std::size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (std::size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (std::size_t k = 0; k <= j; ++k)
            a(j, k) -= f * e[k] + g * a(i, k);
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t l = i;
    if (d[i] != 0.0) {
      for (std::size_t j = 0; j < l; ++j) {
        double g = 0.0;
        for (std::size_t k = 0; k < l; ++k) g += a(i, k) * a(k, j);
        for (std::size_t k = 0; k < l; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (std::size_t j = 0; j < l; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

void ql_implicit(Vector& d, Vector& e, Matrix& z) {
  const std::size_t n = d.size();
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 + 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iterations == 50) throw std::runtime_error("no convergence");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (std::size_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
}

SymmetricEigen eigen(const Matrix& a) {
  SymmetricEigen out;
  const std::size_t n = a.rows();
  Matrix z = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) z(i, j) = z(j, i);
  Vector d, e;
  tridiagonalize(z, d, e);
  ql_implicit(d, e, z);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  out.values.resize(n);
  out.vectors.assign(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = z(i, order[j]);
  }
  return out;
}

}  // namespace textbook

void expect_matches_textbook(const Matrix& a) {
  const SymmetricEigen want = textbook::eigen(a);
  const SymmetricEigen got = eigen_symmetric(a);
  ASSERT_EQ(got.values.size(), want.values.size());
  ASSERT_EQ(got.vectors.rows(), want.vectors.rows());
  ASSERT_EQ(got.vectors.cols(), want.vectors.cols());
  for (std::size_t j = 0; j < want.values.size(); ++j)
    ASSERT_EQ(got.values[j], want.values[j]) << "value " << j;
  for (std::size_t i = 0; i < want.vectors.rows(); ++i)
    for (std::size_t j = 0; j < want.vectors.cols(); ++j)
      ASSERT_EQ(got.vectors(i, j), want.vectors(i, j))
          << "vector entry (" << i << ", " << j << ")";
}

Matrix random_symmetric(std::size_t n, stats::Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) a(i, j) = a(j, i) = rng.normal();
  return a;
}

TEST(EigenSym, MatchesTextbookReferenceBitwise) {
  stats::Rng rng(2024);
  for (std::size_t n : {1, 2, 3, 17, 64, 200}) {
    SCOPED_TRACE("random symmetric n=" + std::to_string(n));
    expect_matches_textbook(random_symmetric(n, rng));
  }
  {
    // A BMF fold kernel with more samples than basis functions (K > M):
    // rank M, so K - M eigenvalues sit at roundoff around zero.
    SCOPED_TRACE("rank-deficient Gram, K=90 > M=25");
    Matrix g(90, 25);
    for (std::size_t i = 0; i < g.rows(); ++i)
      for (std::size_t j = 0; j < g.cols(); ++j) g(i, j) = rng.normal();
    expect_matches_textbook(gemm_nt(g, g));
  }
  {
    // Zero rows take the scale == 0 branch of the Householder reduction.
    SCOPED_TRACE("zero rows");
    Matrix a = random_symmetric(40, rng);
    for (std::size_t z : {5, 22, 39})
      for (std::size_t j = 0; j < a.cols(); ++j) a(z, j) = a(j, z) = 0.0;
    expect_matches_textbook(a);
  }
  {
    // Two identical blocks: every eigenvalue appears exactly twice, so the
    // final sort sees ties.
    SCOPED_TRACE("exactly repeated eigenvalues");
    const Matrix block = random_symmetric(12, rng);
    Matrix a(24, 24);
    for (std::size_t i = 0; i < 12; ++i)
      for (std::size_t j = 0; j < 12; ++j)
        a(i, j) = a(12 + i, 12 + j) = block(i, j);
    expect_matches_textbook(a);
    expect_matches_textbook(Matrix::identity(9));
  }
  {
    SCOPED_TRACE("diagonal");
    expect_matches_textbook(Matrix::diagonal({3, -1, 2, 2, 0, 7, -4, 1}));
  }
}

TEST(EigenSym, DiagonalMatrix) {
  Matrix a = Matrix::diagonal({3, 1, 2});
  SymmetricEigen e = eigen_symmetric(a);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a{{2, 1}, {1, 2}};
  SymmetricEigen e = eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 3.0, 1e-12);
}

TEST(EigenSym, EmptyAndSingleton) {
  EXPECT_EQ(eigen_symmetric(Matrix()).values.size(), 0u);
  SymmetricEigen e = eigen_symmetric(Matrix{{5}});
  ASSERT_EQ(e.values.size(), 1u);
  EXPECT_DOUBLE_EQ(e.values[0], 5.0);
  EXPECT_DOUBLE_EQ(e.vectors(0, 0) * e.vectors(0, 0), 1.0);
}

TEST(EigenSym, NonSquareThrows) {
  EXPECT_THROW(eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

class EigenSymRandom : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSymRandom, ReconstructsAndOrthonormal) {
  const std::size_t n = GetParam();
  stats::Rng rng(1000 + n);
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = rng.normal();
  Matrix a = gemm_nt(b, b);  // symmetric PSD

  SymmetricEigen e = eigen_symmetric(a);

  // Eigenvalues ascending.
  EXPECT_TRUE(std::is_sorted(e.values.begin(), e.values.end()));

  // V^T V = I.
  Matrix vtv = gemm_tn(e.vectors, e.vectors);
  EXPECT_LT(max_abs_diff(vtv, Matrix::identity(n)), 1e-9) << "n=" << n;

  // V diag(w) V^T = A.
  Matrix vd = e.vectors;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) vd(i, j) *= e.values[j];
  Matrix rec = gemm_nt(vd, e.vectors);
  const double scale = frobenius_norm(a) + 1.0;
  EXPECT_LT(max_abs_diff(rec, a) / scale, 1e-10) << "n=" << n;

  // Trace preserved.
  double tr_a = 0.0, sum_w = 0.0;
  for (std::size_t i = 0; i < n; ++i) tr_a += a(i, i);
  for (double w : e.values) sum_w += w;
  EXPECT_NEAR(tr_a, sum_w, 1e-8 * scale);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenSymRandom,
                         ::testing::Values(2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(EigenSym, PsdMatrixHasNonnegativeEigenvalues) {
  stats::Rng rng(77);
  const std::size_t n = 20;
  Matrix b(n, 5);  // rank 5 -> 15 (near) zero eigenvalues
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < 5; ++j) b(i, j) = rng.normal();
  Matrix a = gemm_nt(b, b);
  SymmetricEigen e = eigen_symmetric(a);
  for (double w : e.values) EXPECT_GT(w, -1e-9);
  // Rank should be 5: exactly 5 eigenvalues well above zero.
  std::size_t big = 0;
  for (double w : e.values)
    if (w > 1e-6) ++big;
  EXPECT_EQ(big, 5u);
}

TEST(EigenSym, SolvesShiftedSystemsAcrossGrid) {
  // The CV engine's use case: (I + t^{-1} B)^{-1} v for many t from one
  // decomposition must match a fresh dense solve.
  stats::Rng rng(123);
  const std::size_t n = 12;
  Matrix c(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) c(i, j) = rng.normal();
  Matrix bmat = gemm_nt(c, c);
  SymmetricEigen e = eigen_symmetric(bmat);
  Vector v = rng.normal_vector(n);
  for (double t : {0.1, 1.0, 10.0, 1000.0}) {
    // Via eigen: x = V diag(1/(1 + w/t)) V^T v.
    Vector vt = gemv_t(e.vectors, v);
    for (std::size_t i = 0; i < n; ++i) vt[i] /= 1.0 + e.values[i] / t;
    Vector x_eig = gemv(e.vectors, vt);
    // Via dense solve.
    Matrix a = bmat;
    a *= 1.0 / t;
    for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
    // Gaussian elimination through Cholesky not available here without
    // extra includes; verify by multiplying back instead.
    Vector back = gemv(a, x_eig);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(back[i], v[i], 1e-8) << "t=" << t;
  }
}

}  // namespace
}  // namespace bmf::linalg
