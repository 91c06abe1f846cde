#include "bmf/solver_workspace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "check/contracts.hpp"
#include "linalg/blas.hpp"

namespace bmf::core {

namespace {

linalg::Vector inverse_scale(const CoefficientPrior& prior) {
  const linalg::Vector& q = prior.precision_scale();
  linalg::Vector inv_q(q.size());
  for (std::size_t p = 0; p < q.size(); ++p) inv_q[p] = 1.0 / q[p];
  return inv_q;
}

}  // namespace

linalg::Matrix map_kernel(const linalg::Matrix& g,
                          const CoefficientPrior& prior) {
  LINALG_REQUIRE(g.cols() == prior.size(),
                 "map_kernel: prior size must match basis count");
  BMF_EXPECTS_DIMS(check::all_finite(g),
                   "map_kernel: design matrix must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  BMF_EXPECTS_DIMS(check::all_positive(prior.precision_scale()),
                   "map_kernel: prior variances must be positive and finite",
                   {"prior.size", prior.size()});
  return linalg::outer_gram_weighted(g, inverse_scale(prior));
}

PsdEigen psd_eigen(const linalg::Matrix& b) {
  PsdEigen e;
  static_cast<linalg::SymmetricEigen&>(e) = linalg::eigen_symmetric(b);
  // Record how far below zero the spectrum dipped and how many eigenvalues
  // were beyond roundoff-sized (tol relative to the spectral radius), then
  // clamp every negative eigenvalue to zero.
  double wmax = 0.0;
  for (double w : e.values) {
    wmax = std::max(wmax, std::abs(w));
    e.min_eigenvalue = std::min(e.min_eigenvalue, w);
  }
  const double tol = wmax * 1e-12;
  for (double& w : e.values) {
    if (w < -tol) ++e.clamped;
    w = std::max(w, 0.0);
  }
  return e;
}

MapSolverWorkspace::MapSolverWorkspace(const linalg::Matrix& g,
                                       const linalg::Vector& f,
                                       const CoefficientPrior& prior)
    : MapSolverWorkspace(g, f, prior, map_kernel(g, prior)) {}

MapSolverWorkspace::MapSolverWorkspace(const linalg::Matrix& g,
                                       const linalg::Vector& f,
                                       const CoefficientPrior& prior,
                                       const linalg::Matrix& kernel)
    : g_(&g) {
  LINALG_REQUIRE(g.rows() == f.size(),
                 "MapSolverWorkspace: rhs size mismatch");
  LINALG_REQUIRE(g.cols() == prior.size(),
                 "MapSolverWorkspace: prior size must match basis count");
  LINALG_REQUIRE(kernel.rows() == g.rows() && kernel.cols() == g.rows(),
                 "MapSolverWorkspace: kernel must be K x K");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(f),
                   "MapSolverWorkspace: design matrix and responses must be "
                   "finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  BMF_EXPECTS_DIMS(check::all_positive(prior.precision_scale()),
                   "MapSolverWorkspace: prior variances must be positive and "
                   "finite",
                   {"prior.size", prior.size()});
  const std::size_t m = g.cols();
  inv_q_ = inverse_scale(prior);

  // The eigendecomposition of B is the only super-quadratic work here;
  // everything tau-dependent happens in the eigenbasis afterwards.
  eig_ = psd_eigen(kernel);

  // u0 = D^{-1} G^T f and vb2 = V^T (B f) = V^T (G u0).
  linalg::Vector gt_f = linalg::gemv_t(g, f);
  u0_.resize(m);
  for (std::size_t p = 0; p < m; ++p) u0_[p] = inv_q_[p] * gt_f[p];
  vb2_ = linalg::gemv_t(eig_.vectors, linalg::gemv(g, u0_));

  own_mean_ = project_mean(prior.mean());
}

MapSolverWorkspace::ProjectedMean MapSolverWorkspace::project_mean(
    const linalg::Vector& mu) const {
  LINALG_REQUIRE(mu.size() == num_bases(),
                 "MapSolverWorkspace: mean size must match basis count");
  BMF_EXPECTS_DIMS(check::all_finite(mu),
                   "MapSolverWorkspace: prior mean must be finite",
                   {"mu.size", mu.size()});
  ProjectedMean mean;
  bool zero = true;
  for (double v : mu)
    if (v != 0.0) {
      zero = false;
      break;
    }
  if (zero) return mean;  // empty mu/vb1 encode the zero mean
  mean.mu = mu;
  mean.vb1 = linalg::gemv_t(eig_.vectors, linalg::gemv(*g_, mu));
  return mean;
}

linalg::Vector MapSolverWorkspace::solve(double tau) const {
  return solve(tau, own_mean_);
}

linalg::Vector MapSolverWorkspace::solve(double tau,
                                         const linalg::Vector& mu) const {
  return solve(tau, project_mean(mu));
}

linalg::Vector MapSolverWorkspace::solve(double tau,
                                         const ProjectedMean& mean) const {
  if (tau <= 0.0)
    throw std::invalid_argument("MapSolverWorkspace: tau must be positive");
  BMF_EXPECTS(check::is_finite(tau), "MapSolverWorkspace: tau must be finite");
  const std::size_t k = num_samples(), m = num_bases();
  const double inv_tau = 1.0 / tau;

  // Capacitance solve in the eigenbasis:
  //   s = (I + B/tau)^{-1} (G mu + B f / tau)  via  V diag(1/(1 + w/tau)) V^T.
  linalg::Vector s(k);
  const bool has_mean = !mean.vb1.empty();
  for (std::size_t i = 0; i < k; ++i) {
    const double rhs = (has_mean ? mean.vb1[i] : 0.0) + inv_tau * vb2_[i];
    s[i] = rhs / (1.0 + inv_tau * eig_.values[i]);
  }
  linalg::Vector t = linalg::gemv(eig_.vectors, s);

  // alpha = mu + (u0 - D^{-1} G^T t) / tau.
  linalg::Vector gt = linalg::gemv_t(*g_, t);
  linalg::Vector x(m);
  for (std::size_t p = 0; p < m; ++p) {
    const double mu_p = mean.mu.empty() ? 0.0 : mean.mu[p];
    x[p] = mu_p + inv_tau * (u0_[p] - inv_q_[p] * gt[p]);
  }
  BMF_ENSURES_DIMS(check::all_finite(x),
                   "MapSolverWorkspace::solve produced non-finite "
                   "coefficients",
                   {"k", k}, {"m", m});
  return x;
}

}  // namespace bmf::core
