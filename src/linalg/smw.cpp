#include "linalg/smw.hpp"

#include "check/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"

namespace bmf::linalg {

Vector woodbury_solve(const Matrix& g, const Vector& diag, double c,
                      const Vector& b) {
  LINALG_REQUIRE(g.cols() == diag.size(),
                 "woodbury_solve: diag size must equal G columns");
  LINALG_REQUIRE(c > 0.0, "woodbury_solve: c must be positive");
  LINALG_REQUIRE(b.size() == g.cols(), "woodbury_solve: rhs size mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(g),
                   "woodbury_solve: design matrix must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  BMF_EXPECTS_DIMS(check::all_positive(diag) && check::is_finite(c),
                   "woodbury_solve: diagonal must be positive and finite",
                   {"diag.size", diag.size()});
  BMF_EXPECTS_DIMS(check::all_finite(b), "woodbury_solve: rhs must be finite",
                   {"b.size", b.size()});
  Vector inv_diag(diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) {
    LINALG_REQUIRE(diag[i] > 0.0,
                   "woodbury_solve: diagonal entries must be positive");
    inv_diag[i] = 1.0 / diag[i];
  }
  // Capacitance matrix: c^{-1} I + G A^{-1} G^T.
  Matrix cap = outer_gram_weighted(g, inv_diag);
  const double cinv = 1.0 / c;
  for (std::size_t i = 0; i < cap.rows(); ++i) cap(i, i) += cinv;
  // u = A^{-1} b; t = (cap)^{-1} G u; x = u - A^{-1} G^T t.
  Vector u(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) u[i] = inv_diag[i] * b[i];
  Vector t = Cholesky(cap).solve(gemv(g, u));
  Vector gt = gemv_t(g, t);
  Vector x(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) x[i] = u[i] - inv_diag[i] * gt[i];
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "woodbury_solve produced a non-finite solution",
                   {"k", g.rows()}, {"m", g.cols()});
  return x;
}

}  // namespace bmf::linalg
