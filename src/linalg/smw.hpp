// Sherman–Morrison–Woodbury low-rank solve.
//
// The BMF fast solver (paper Section IV-C, Eq. 53-58) needs
//   (diag(a) + c * G^T G)^{-1} * b
// where G is K x M with K << M. Woodbury turns the M x M solve into a
// K x K SPD solve:
//   (A + c G^T G)^{-1} b = A^{-1} b
//        - A^{-1} G^T (c^{-1} I + G A^{-1} G^T)^{-1} G A^{-1} b
// which never forms an M x M matrix.
#pragma once

#include "linalg/matrix.hpp"

namespace bmf::linalg {

/// Solve (diag(a) + c G^T G) x = b. `g` is the K x M design matrix, `diag`
/// the M diagonal entries (all > 0), `c` the positive scale of the Gram
/// term, `b` the M-entry right-hand side. Builds and factorizes the K x K
/// capacitance matrix per call: O(K^2 M + K^3).
Vector woodbury_solve(const Matrix& g, const Vector& diag, double c,
                      const Vector& b);

}  // namespace bmf::linalg
