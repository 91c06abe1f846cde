// Cholesky (L * L^T) factorization and SPD linear solves.
//
// This is the "conventional solver" the paper benchmarks the fast SMW
// solver against (Section IV-C, Fig. 5), and it is also the inner K x K
// solve inside the fast solver itself.
//
// robust_spd_solve is the degradation ladder behind the serving path: a
// kernel matrix that is numerically indefinite (near-duplicate sampling
// points, extreme tau) must produce a usable answer plus a structured
// diagnostic, not an exception that kills the request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "linalg/matrix.hpp"

namespace bmf::linalg {

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
class Cholesky {
 public:
  /// Factorize `a` (must be square, symmetric, positive definite).
  /// Throws std::runtime_error if a non-positive pivot is encountered.
  explicit Cholesky(const Matrix& a);

  /// Factorize if possible; returns std::nullopt when `a` is not SPD
  /// (non-positive pivot) instead of throwing.
  static std::optional<Cholesky> try_factor(const Matrix& a);

  /// Solve A x = b for one right-hand side.
  Vector solve(const Vector& b) const;

  /// Solve A X = B column-by-column.
  Matrix solve(const Matrix& b) const;

  /// Lower-triangular factor L (A = L L^T).
  const Matrix& factor() const { return l_; }

  /// log(det(A)) = 2 * sum(log(L_ii)); useful for Bayesian evidence.
  double log_det() const;

  std::size_t dim() const { return l_.rows(); }

 private:
  Cholesky() = default;
  /// Returns false on non-positive pivot.
  bool factor_in_place(const Matrix& a);

  Matrix l_;
};

/// Solve L y = b (forward substitution) for lower-triangular L.
Vector forward_subst(const Matrix& l, const Vector& b);

/// Solve L^T x = y (backward substitution) given lower-triangular L.
Vector backward_subst_t(const Matrix& l, const Vector& y);

/// Solve U x = y (backward substitution) for upper-triangular U.
Vector backward_subst(const Matrix& u, const Vector& y);

/// One-shot SPD solve: factor + solve. Throws if not SPD.
Vector spd_solve(const Matrix& a, const Vector& b);

/// How robust_spd_solve obtained its answer. `degraded()` is the signal a
/// caller should surface (the serve protocol forwards it verbatim).
struct RobustSpdReport {
  enum class Path : std::uint8_t {
    kCholesky = 0,       // clean factorization, exact SPD solve
    kJittered = 1,       // solved after adding diagonal jitter
    kPseudoInverse = 2,  // eigendecomposition pseudo-solve (rank-deficient)
  };
  Path path = Path::kCholesky;
  /// Failed factorization attempts before the one that succeeded (0 on the
  /// clean path; 1..3 on the jitter rungs; 4 when the ladder fell through
  /// to the pseudo-solve).
  std::uint32_t attempts = 0;
  /// Total diagonal shift in effect when the solve succeeded (0 unless
  /// path == kJittered).
  double jitter = 0.0;
  /// Eigenvalues at or below the rank tolerance discarded by the
  /// pseudo-solve (0 unless path == kPseudoInverse).
  std::size_t discarded = 0;

  bool degraded() const { return path != Path::kCholesky; }
};

/// Solve A x = b for symmetric A that *should* be positive definite but
/// may not quite be. Ladder: (1) plain Cholesky; (2) Cholesky with
/// diagonal jitter escalating from max|A_ii| * 1e-12 by factors of 1e3 for
/// three rungs; (3) symmetric-eigendecomposition pseudo-solve discarding
/// eigenvalues <= max|w| * 1e-12. Deterministic (the "jitter" is a fixed
/// schedule, not random). Never throws for symmetric finite input; fills
/// `report` (when non-null) with the path taken.
Vector robust_spd_solve(const Matrix& a, const Vector& b,
                        RobustSpdReport* report = nullptr);

}  // namespace bmf::linalg
