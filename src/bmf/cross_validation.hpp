// N-fold cross-validation for prior and hyper-parameter selection
// (paper Section IV-D).
//
// Naively, scanning an N_tau-point hyper-parameter grid with N folds costs
// N * N_tau Woodbury solves, each O(K^2 M + K^3). This engine exploits the
// structure of the problem: fold n's K_tr x K_tr capacitance matrix is
// I + B_n / tau, where B_n = G_tr diag(1/q) G_tr^T is *independent of tau*
// and *identical for the zero-mean and nonzero-mean priors* (both use
// q_m = 1/alpha_E,m^2, Section III-A). B_n is also a slice of the full-data
// kernel B = G diag(1/q) G^T that the final MAP solve uses
// (bmf/solver_workspace.hpp): B_n = B[train, train], and the cross term to
// the held-out rows is C_n = B[test, train]. So the engine takes B, built
// once per design matrix by map_kernel(), eigendecomposes each B_n once,
// and every (prior, tau) grid point afterwards costs only
// O(K_train * (K_train + K_test)).
#pragma once

#include <cstdint>
#include <vector>

#include "bmf/solver_workspace.hpp"
#include "linalg/matrix.hpp"
#include "stats/kfold.hpp"

namespace bmf::core {

struct CvOptions {
  /// Number of folds N (paper uses unspecified N-fold; we default to 5).
  std::size_t folds = 5;
  /// Number of log-spaced grid points for tau.
  std::size_t grid_size = 21;
  /// Grid spans [grid_lo_rel, grid_hi_rel] x Var(f). tau is sigma_0^2 (ZM)
  /// or eta = sigma_0^2/lambda^2 (NZM). The window is deliberately wide:
  /// the low end means "no usable prior", the high end must be able to pin
  /// even the widest (flat) prior entries when the data prefers that.
  double grid_lo_rel = 1e-9;
  double grid_hi_rel = 1e6;
  /// Seed of the fold-assignment shuffle.
  std::uint64_t seed = 7;
};

/// Cross-validation error curve over the tau grid for one prior mean.
struct CvCurve {
  std::vector<double> taus;
  std::vector<double> errors;  // mean over folds of relative error (Eq. 59)

  /// Index of the minimizing grid point.
  std::size_t best_index() const;
  double best_tau() const { return taus[best_index()]; }
  double best_error() const { return errors[best_index()]; }
};

/// Per-fold cached quantities shared by every grid point.
class CvEngine {
 public:
  /// `g` (K x M) and `f` (K) are the late-stage training data; `kernel`
  /// is map_kernel(g, prior). The kernel depends on the prior only through
  /// the precision scale q, which the zero-mean and nonzero-mean priors
  /// share — so one engine serves both. `g` must outlive the engine; `f`
  /// and `kernel` are only read during construction.
  CvEngine(const linalg::Matrix& g, const linalg::Vector& f,
           const linalg::Matrix& kernel, const CvOptions& options);

  /// Evaluate the CV error over the tau grid for a prior with mean `mu`
  /// (an all-zero vector for the zero-mean prior).
  CvCurve evaluate(const linalg::Vector& mu) const;

  const linalg::Vector& tau_grid() const { return taus_; }
  std::size_t num_folds() const { return folds_.size(); }

 private:
  struct Fold {
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
    PsdEigen eig;                 // of B_tr = B[train, train]
    linalg::Vector f_test;        // held-out responses
    linalg::Vector vb2;           // V^T (B_tr f_tr)  (size K_tr)
    linalg::Vector a2;            // C f_tr, C = B[test, train] (size K_te)
    linalg::Matrix c_hat;         // C V (K_te x K_tr)
  };

  /// Build the cached quantities of fold `fi` into folds_[fi]. Called from
  /// a parallel loop in the constructor — folds are fully independent.
  void build_fold(const linalg::Vector& f, const linalg::Matrix& kernel,
                  const stats::KFold& kfold, std::size_t fi);

  const linalg::Matrix* g_;
  linalg::Vector taus_;
  std::vector<Fold> folds_;
};

/// Log-spaced grid helper: n points from lo to hi (inclusive), both > 0.
linalg::Vector log_grid(double lo, double hi, std::size_t n);

/// The auto-centering rule used by CvEngine: the sample variance of the
/// responses (falls back to mean(f)^2, then 1, if degenerate).
double tau_grid_center(const linalg::Vector& f);

}  // namespace bmf::core
