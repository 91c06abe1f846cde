#include "linalg/qr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"

namespace bmf::linalg {

HouseholderQR::HouseholderQR(const Matrix& a) : qr_(a), beta_(a.cols(), 0.0) {
  LINALG_REQUIRE(a.rows() >= a.cols(),
                 "HouseholderQR requires rows >= cols");
  BMF_EXPECTS_DIMS(check::all_finite(a), "HouseholderQR input must be finite",
                   {"a.rows", a.rows()}, {"a.cols", a.cols()});
  const std::size_t m = qr_.rows(), n = qr_.cols();
  for (std::size_t j = 0; j < n; ++j) {
    // Build the Householder vector for column j from rows j..m-1.
    double norm = 0.0;
    for (std::size_t i = j; i < m; ++i) norm += qr_(i, j) * qr_(i, j);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      beta_[j] = 0.0;
      continue;
    }
    const double alpha = qr_(j, j) >= 0 ? -norm : norm;
    const double v0 = qr_(j, j) - alpha;
    // v = (v0, qr(j+1..m-1, j)); beta = 2 / ||v||^2, stored with v0 folded in.
    double vnorm2 = v0 * v0;
    for (std::size_t i = j + 1; i < m; ++i) vnorm2 += qr_(i, j) * qr_(i, j);
    beta_[j] = vnorm2 > 0 ? 2.0 / vnorm2 : 0.0;
    // Apply reflector to the remaining columns.
    for (std::size_t c = j + 1; c < n; ++c) {
      double s = v0 * qr_(j, c);
      for (std::size_t i = j + 1; i < m; ++i) s += qr_(i, j) * qr_(i, c);
      s *= beta_[j];
      qr_(j, c) -= s * v0;
      for (std::size_t i = j + 1; i < m; ++i) qr_(i, c) -= s * qr_(i, j);
    }
    qr_(j, j) = alpha;  // R diagonal
    // Store normalized v below the diagonal: keep v_i (i>j) as-is and
    // remember v0 implicitly by storing it scaled into a side channel.
    // We fold v0 into the subdiagonal by dividing: v := v / v0, so that
    // v0 becomes 1 and beta is rescaled accordingly.
    if (v0 != 0.0) {
      for (std::size_t i = j + 1; i < m; ++i) qr_(i, j) /= v0;
      beta_[j] *= v0 * v0;
    }
  }
}

Vector HouseholderQR::apply_qt(const Vector& b) const {
  LINALG_REQUIRE(b.size() == qr_.rows(), "apply_qt size mismatch");
  const std::size_t m = qr_.rows(), n = qr_.cols();
  Vector y = b;
  for (std::size_t j = 0; j < n; ++j) {
    if (beta_[j] == 0.0) continue;
    // v = (1, qr(j+1..m-1, j)).
    double s = y[j];
    for (std::size_t i = j + 1; i < m; ++i) s += qr_(i, j) * y[i];
    s *= beta_[j];
    y[j] -= s;
    for (std::size_t i = j + 1; i < m; ++i) y[i] -= s * qr_(i, j);
  }
  return y;
}

Vector HouseholderQR::solve(const Vector& b) const {
  BMF_EXPECTS_DIMS(check::all_finite(b),
                   "HouseholderQR::solve rhs must be finite",
                   {"b.size", b.size()});
  const std::size_t n = qr_.cols();
  for (std::size_t i = 0; i < n; ++i)
    if (qr_(i, i) == 0.0)
      throw std::runtime_error("HouseholderQR::solve: singular R");
  Vector y = apply_qt(b);
  // Back-substitute on the leading n x n block of R.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= qr_(ii, k) * x[k];
    x[ii] = s / qr_(ii, ii);
  }
  return x;
}

Matrix HouseholderQR::r() const {
  const std::size_t n = qr_.cols();
  Matrix r(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) r(i, j) = qr_(i, j);
  return r;
}

double HouseholderQR::min_max_pivot_ratio() const {
  const std::size_t n = qr_.cols();
  if (n == 0) return 1.0;
  double mn = std::abs(qr_(0, 0)), mx = mn;
  for (std::size_t i = 1; i < n; ++i) {
    const double p = std::abs(qr_(i, i));
    mn = std::min(mn, p);
    mx = std::max(mx, p);
  }
  return mx > 0 ? mn / mx : 0.0;
}

IncrementalQR::IncrementalQR(Vector b) : b_(std::move(b)), residual_(b_) {
  BMF_EXPECTS_DIMS(check::all_finite(b_), "IncrementalQR rhs must be finite",
                   {"m", b_.size()});
}

bool IncrementalQR::append_column(const Vector& v, double tol) {
  const std::size_t s = q_.size();
  LINALG_REQUIRE(v.size() == b_.size(), "append_column size mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(v),
                   "append_column input must be finite", {"m", b_.size()},
                   {"ncols", s});
  const double vnorm = norm2(v);
  Vector w = v;
  Vector rcol(s + 1, 0.0);
  // Modified Gram-Schmidt, two passes for numerical robustness.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < s; ++j) {
      const double c = dot(q_[j], w);
      rcol[j] += c;
      axpy(-c, q_[j], w);
    }
  }
  const double wnorm = norm2(w);
  if (wnorm <= tol * std::max(vnorm, 1e-300)) return false;
  scal(1.0 / wnorm, w);
  for (std::size_t i = 0; i < s; ++i) r_[i].push_back(rcol[i]);
  r_.push_back(Vector{wnorm});
  // q_s^T b against the original b (not the running residual), so entry s
  // and the residual after s + 1 columns are exactly those of a projection
  // recomputed from scratch.
  const double c = dot(w, b_);
  qtb_.push_back(c);
  axpy(-c, w, residual_);
  q_.push_back(std::move(w));
  return true;
}

Vector IncrementalQR::solve(std::size_t n) const {
  LINALG_REQUIRE(n <= q_.size(), "solve: more columns than appended");
  Vector x(n);
  for (std::size_t i = n; i-- > 0;) {
    const Vector& row = r_[i];  // R(i, i + t) = row[t]
    double acc = qtb_[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= row[k - i] * x[k];
    x[i] = acc / row[0];
  }
  return x;
}

}  // namespace bmf::linalg
