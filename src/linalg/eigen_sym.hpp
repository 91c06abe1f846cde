// Symmetric eigendecomposition A = V diag(w) V^T.
//
// Classic two-phase dense algorithm: Householder reduction to tridiagonal
// form (tred2) followed by the implicit-shift QL iteration (tqli),
// accumulating the orthogonal transform. Callers:
//   * core::psd_eigen (bmf/solver_workspace.hpp) — once per CV fold on the
//     fold's K_tr x K_tr kernel slice, so the whole tau grid is solved at
//     O(K^2) per point, and once per MapSolverWorkspace for the final MAP
//     solve on the full K x K kernel;
//   * linalg::robust_spd_solve (cholesky.hpp) — its last-resort fallback
//     for matrices that stay indefinite after jittering.
//
// Layout: every loop walks rows of the row-major working matrix, none walk
// columns. The reduction forms p = A u in one pass over the rows of the
// lower triangle; the transform is accumulated with a row-vector product
// followed by a row-wise rank-1 update, fused with the next step's product.
// The QL iteration works on the transposed transform: its Givens rotations
// are logged (at most 4n entries, O(n) memory) and applied to two
// contiguous rows at a time, one 64-column panel after another, so the
// panel stays in cache across the whole log.
//
// Bit-identity contract: each output value is produced by the same
// floating-point operations, in the same order, as the textbook
// column-walking tred2 + tqli, so the result does not differ from it in a
// single bit (tests/eigen_sym_test.cpp keeps that reference). The code runs
// on the calling thread and uses no SIMD dispatch, so the result is also
// the same at every BMF_NUM_THREADS and BMF_SIMD_LEVEL.
#pragma once

#include "linalg/matrix.hpp"

namespace bmf::linalg {

struct SymmetricEigen {
  /// Eigenvalues in ascending order.
  Vector values;
  /// Orthonormal eigenvectors as columns: A * V.col(j) = values[j] * V.col(j).
  Matrix vectors;
};

/// Eigendecomposition of a symmetric matrix (only the lower triangle is
/// read). Throws std::runtime_error if the QL iteration fails to converge
/// (more than 50 sweeps on one eigenvalue — practically unreachable for
/// well-formed symmetric input).
SymmetricEigen eigen_symmetric(const Matrix& a);

}  // namespace bmf::linalg
