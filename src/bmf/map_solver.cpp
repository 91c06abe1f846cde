#include "bmf/map_solver.hpp"

#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/smw.hpp"

namespace bmf::core {

namespace {

void validate(const linalg::Matrix& g, const linalg::Vector& f,
              const CoefficientPrior& prior, double tau) {
  LINALG_REQUIRE(g.rows() == f.size(), "map_solve: rhs size mismatch");
  LINALG_REQUIRE(g.cols() == prior.size(),
                 "map_solve: prior size must match basis count");
  if (tau <= 0.0)
    throw std::invalid_argument("map_solve: tau must be positive");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(f),
                   "map_solve: design matrix and responses must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  BMF_EXPECTS(check::is_finite(tau), "map_solve: tau must be finite");
  BMF_EXPECTS_DIMS(check::all_positive(prior.precision_scale()) &&
                       check::all_finite(prior.mean()),
                   "map_solve: prior variances must be positive and finite",
                   {"prior.size", prior.size()});
}

/// rhs = tau * D * mu + G^T f.
linalg::Vector build_rhs(const linalg::Matrix& g, const linalg::Vector& f,
                         const CoefficientPrior& prior, double tau) {
  linalg::Vector rhs = linalg::gemv_t(g, f);
  const linalg::Vector& mu = prior.mean();
  const linalg::Vector& q = prior.precision_scale();
  for (std::size_t m = 0; m < rhs.size(); ++m)
    if (mu[m] != 0.0) rhs[m] += tau * q[m] * mu[m];
  return rhs;
}

}  // namespace

linalg::Vector map_solve_direct(const linalg::Matrix& g,
                                const linalg::Vector& f,
                                const CoefficientPrior& prior, double tau) {
  validate(g, f, prior, tau);
  linalg::Matrix a = linalg::gram(g);
  const linalg::Vector& q = prior.precision_scale();
  for (std::size_t m = 0; m < a.rows(); ++m) a(m, m) += tau * q[m];
  linalg::Vector x = linalg::Cholesky(a).solve(build_rhs(g, f, prior, tau));
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "map_solve_direct produced non-finite coefficients",
                   {"m", x.size()});
  return x;
}

linalg::Vector map_solve_fast(const linalg::Matrix& g,
                              const linalg::Vector& f,
                              const CoefficientPrior& prior, double tau) {
  validate(g, f, prior, tau);
  linalg::Vector diag = prior.precision_scale();
  for (double& d : diag) d *= tau;
  linalg::Vector x =
      linalg::woodbury_solve(g, diag, 1.0, build_rhs(g, f, prior, tau));
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "map_solve_fast produced non-finite coefficients",
                   {"m", x.size()});
  return x;
}

RobustMapResult map_solve_robust(const linalg::Matrix& g,
                                 const linalg::Vector& f,
                                 const CoefficientPrior& prior, double tau) {
  validate(g, f, prior, tau);
  linalg::Matrix a = linalg::gram(g);
  const linalg::Vector& q = prior.precision_scale();
  for (std::size_t m = 0; m < a.rows(); ++m) a(m, m) += tau * q[m];
  RobustMapResult result;
  result.coefficients =
      linalg::robust_spd_solve(a, build_rhs(g, f, prior, tau), &result.report);
  BMF_ENSURES_DIMS(check::all_finite(result.coefficients),
                   "map_solve_robust produced non-finite coefficients",
                   {"m", result.coefficients.size()});
  return result;
}

}  // namespace bmf::core
