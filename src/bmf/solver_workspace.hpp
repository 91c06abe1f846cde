// The tau-independent MAP kernel of one design matrix, and the amortized
// solver built on it: one factorization, O(K^2 + K M) per hyper-parameter
// afterwards.
//
// Every MAP solve in the pipeline shares the normal equations
//   (tau * D + G^T G) alpha = tau * D * mu + G^T f,   D = diag(q),
// and the fusion pipeline solves them dozens of times on the *same*
// (G, f, q): the tau sweep of the CV grid, BMF-PS evaluating both priors,
// every SequentialFusion stage. map_solve_direct rebuilds an O(K M^2) Gram
// and an O(M^3) Cholesky per call; map_solve_fast rebuilds an O(K^2 M)
// Woodbury capacitance and an O(K^3) factorization per call — all of it
// tau-independent work.
//
// Writing the Woodbury identity with A = tau * D and the kernel
// B = G D^{-1} G^T:
//
//   alpha(tau, mu) = mu + D^{-1} G^T f / tau
//                  - D^{-1} G^T (I + B/tau)^{-1} (G mu + B f / tau) / tau
//
// B (K x K) is independent of tau and of the prior mean, and it is
// *identical for the zero-mean and nonzero-mean priors* (both use
// q_m = 1/alpha_E,m^2, paper Section III-A). map_kernel() is the one place
// B is built. Its two consumers read the same matrix:
//
//   * MapSolverWorkspace eigendecomposes B = V diag(w) V^T once; afterwards
//     (I + B/tau)^{-1} is a diagonal rescale in the eigenbasis and each
//     solve(tau) costs O(K^2 + K M).
//   * CvEngine (bmf/cross_validation.hpp) slices it: fold n's kernel is the
//     principal submatrix B[train, train] and its cross term B[test, train].
//
// Both eigendecompositions go through psd_eigen(). The solves are exact (no
// approximation): results match map_solve_direct / map_solve_fast to solver
// tolerance.
#pragma once

#include <cstddef>

#include "bmf/prior.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"

namespace bmf::core {

/// B = G D^{-1} G^T (K x K, symmetric PSD) for the design matrix `g`
/// (K x M) and the precision scale q = diag(D) of `prior`. Cost O(K^2 M).
linalg::Matrix map_kernel(const linalg::Matrix& g,
                          const CoefficientPrior& prior);

/// Eigendecomposition of B or of a principal submatrix of it. B is PSD in
/// exact arithmetic; roundoff can push eigenvalues slightly negative, and
/// those are clamped to zero. min_eigenvalue is the smallest *pre-clamp*
/// eigenvalue; clamped counts eigenvalues below -tol (tol relative to the
/// spectral radius) — clamps large enough to signal a genuinely indefinite
/// kernel rather than benign roundoff.
struct PsdEigen : linalg::SymmetricEigen {
  double min_eigenvalue = 0.0;
  std::size_t clamped = 0;
};

PsdEigen psd_eigen(const linalg::Matrix& b);

class MapSolverWorkspace {
 public:
  /// Builds the tau-independent state from the design matrix `g` (K x M),
  /// responses `f` (K), and `prior` (supplies the precision scale q and the
  /// default mean). `g` must outlive the workspace; `f` and the prior are
  /// only read during construction. Cost: O(K^2 M + K^3).
  MapSolverWorkspace(const linalg::Matrix& g, const linalg::Vector& f,
                     const CoefficientPrior& prior);

  /// Same, reusing `kernel` = map_kernel(g, prior) (read only during
  /// construction): O(K^3 + K M).
  MapSolverWorkspace(const linalg::Matrix& g, const linalg::Vector& f,
                     const CoefficientPrior& prior,
                     const linalg::Matrix& kernel);

  /// Tau-independent projection of one prior mean; build once with
  /// project_mean(), reuse across the whole tau grid.
  struct ProjectedMean {
    linalg::Vector mu;   // the mean itself (M entries; empty means mu == 0)
    linalg::Vector vb1;  // V^T (G mu) (K entries; empty when mu == 0)
  };

  /// Projects a prior mean into the eigenbasis (O(K M + K^2); detects an
  /// all-zero mean and short-circuits). The mean must share the workspace's
  /// precision scale q — i.e. come from the ZM/NZM pair of the same early
  /// model, which the pipeline guarantees.
  ProjectedMean project_mean(const linalg::Vector& mu) const;

  /// MAP coefficients at `tau` with the construction prior's own mean.
  /// O(K^2 + K M).
  linalg::Vector solve(double tau) const;

  /// MAP coefficients at `tau` with an explicit mean (projected on the fly).
  linalg::Vector solve(double tau, const linalg::Vector& mu) const;

  /// MAP coefficients at `tau` reusing a cached mean projection — the
  /// cheapest repeated-query path.
  linalg::Vector solve(double tau, const ProjectedMean& mean) const;

  std::size_t num_samples() const { return g_->rows(); }  // K
  std::size_t num_bases() const { return g_->cols(); }    // M

  /// Degradation telemetry of the PSD clamp (see PsdEigen).
  double min_eigenvalue() const { return eig_.min_eigenvalue; }
  std::size_t clamped_eigenvalues() const { return eig_.clamped; }
  bool degraded() const { return eig_.clamped > 0; }

 private:
  const linalg::Matrix* g_;     // not owned; must outlive the workspace
  linalg::Vector inv_q_;        // D^{-1} diagonal (M)
  PsdEigen eig_;                // of B = G D^{-1} G^T
  linalg::Vector u0_;           // D^{-1} G^T f (M)
  linalg::Vector vb2_;          // V^T (B f) = V^T (G u0) (K)
  ProjectedMean own_mean_;      // projection of the construction prior mean
};

}  // namespace bmf::core
