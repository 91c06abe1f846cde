// QR factorization: full Householder QR for general least squares, and an
// incremental column-append QR (Gram-Schmidt with reorthogonalization) that
// lets the OMP baseline grow its active set in O(K*s) per appended column.
#pragma once

#include "linalg/matrix.hpp"

namespace bmf::linalg {

/// Householder QR of a (m x n) matrix with m >= n.
/// Stores the compact R and applies Q^T to right-hand sides on demand.
class HouseholderQR {
 public:
  /// Factorize `a`; requires a.rows() >= a.cols().
  explicit HouseholderQR(const Matrix& a);

  /// Least-squares solution of min ||A x - b||_2.
  /// Throws std::runtime_error if R is numerically singular.
  Vector solve(const Vector& b) const;

  /// Apply Q^T to a vector of length rows().
  Vector apply_qt(const Vector& b) const;

  /// The upper-triangular factor (n x n leading block).
  Matrix r() const;

  std::size_t rows() const { return qr_.rows(); }
  std::size_t cols() const { return qr_.cols(); }

  /// Smallest |R_ii| / largest |R_ii| — a cheap rank/conditioning probe.
  double min_max_pivot_ratio() const;

 private:
  Matrix qr_;    // Householder vectors below the diagonal, R on/above.
  Vector beta_;  // Householder scaling factors.
};

/// Incremental thin QR bound to one right-hand side b: starts empty and
/// appends one column at a time, maintaining Q (m x s, orthonormal
/// columns), R (s x s upper-triangular), Q^T b and the residual b - Q Q^T b.
///
/// Used by OMP: after selecting basis column g_j, append it; the residual
/// update is then one axpy and the LS refit over the active set a single
/// back-substitution.
class IncrementalQR {
 public:
  /// `b` is the right-hand side; its size fixes the column length m.
  explicit IncrementalQR(Vector b);

  /// Append column v (size m). Returns false — and leaves the factorization
  /// unchanged — if v is numerically dependent on the current columns
  /// (residual norm <= tol * ||v||).
  bool append_column(const Vector& v, double tol = 1e-10);

  /// Least-squares coefficients over the first n appended columns:
  /// argmin_x || [v_1 ... v_n] x - b ||_2. Those columns' part of the
  /// factorization is fixed once appended, so the result is exactly what
  /// this call returned when n columns had been appended.
  Vector solve(std::size_t n) const;

  /// Residual b - Q Q^T b of projecting b onto the current column span.
  const Vector& residual() const { return residual_; }

 private:
  Vector b_;
  // Q stored column-major: q_[j] is the j-th orthonormal column (size m).
  std::vector<Vector> q_;
  // R stored as packed rows: r_[i] holds R(i, i..s-1), so back-substitution
  // reads each row contiguously.
  std::vector<Vector> r_;
  Vector qtb_;       // Q^T b; entry j is fixed once column j is appended.
  Vector residual_;  // b minus one axpy per appended column.
};

}  // namespace bmf::linalg
