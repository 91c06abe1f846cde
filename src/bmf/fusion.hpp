// The full BMF pipeline (paper Algorithm 1).
//
// Given the early-stage knowledge (coefficients over the late-stage basis,
// possibly produced by prior mapping, with an informative mask for missing
// entries) and K late-stage samples, BmfFitter:
//
//   1. defines the zero-mean and/or nonzero-mean prior (Section III-A),
//   2. picks the hyper-parameter (sigma_0^2 resp. eta) by N-fold
//      cross-validation over a log grid (Section IV-D),
//   3. optionally picks the better of the two priors by the same CV error
//      (the BMF-PS variant of Section V),
//   4. solves the MAP estimate in the eigenbasis of the tau-independent
//      kernel (the fast solver of Section IV-C).
//
// The ZM and NZM priors use the same precision scale q, so one kernel
// B = G diag(1/q) G^T (bmf/solver_workspace.hpp) serves both, and the
// fitter builds it once per design matrix. The CV engine — the expensive
// part — slices its folds out of B; the MapSolverWorkspace behind every
// fit_at(kind, tau) query and the final fit eigendecomposes the same B and
// answers each solve at O(K^2 + K M). All three are built lazily.
#pragma once

#include <memory>
#include <optional>

#include "basis/model.hpp"
#include "bmf/cross_validation.hpp"
#include "bmf/prior.hpp"
#include "bmf/prior_mapping.hpp"
#include "bmf/solver_workspace.hpp"

namespace bmf::core {

/// Which prior(s) Algorithm 1 may use.
enum class PriorSelection { kZeroMean, kNonzeroMean, kAuto };

const char* to_string(PriorSelection sel);

struct FusionOptions {
  PriorOptions prior;
  CvOptions cv;
};

struct FusionReport {
  PriorKind chosen_kind = PriorKind::kZeroMean;
  double chosen_tau = 0.0;
  /// CV error of the chosen configuration.
  double cv_error = 0.0;
  /// Full CV curves (present only for the priors that were evaluated).
  std::optional<CvCurve> zm_curve;
  std::optional<CvCurve> nzm_curve;
};

struct FusionResult {
  basis::PerformanceModel model;
  FusionReport report;
};

class BmfFitter {
 public:
  /// `early_coeffs` must have one entry per late-basis term; `informative`
  /// marks entries carrying real prior knowledge (empty mask = all).
  BmfFitter(basis::BasisSet late_basis, linalg::Vector early_coeffs,
            std::vector<char> informative = {}, FusionOptions options = {});

  /// Construct from a prior-mapping result (Section IV-A).
  BmfFitter(const MappedPrior& mapped, FusionOptions options = {});

  /// Bind the K late-stage samples; builds the design matrix G once.
  void set_data(const linalg::Matrix& points, const linalg::Vector& f);

  /// Bind a precomputed design matrix (K x M) directly.
  void set_design(linalg::Matrix g, linalg::Vector f);

  /// CV error curves (computed on demand; requires bound data).
  const CvCurve& zero_mean_curve();
  const CvCurve& nonzero_mean_curve();

  /// Run Algorithm 1 end-to-end with the given prior policy.
  FusionResult fit(PriorSelection selection = PriorSelection::kAuto);

  /// MAP fit at an explicit (prior, tau) — for ablations and sweeps.
  basis::PerformanceModel fit_at(PriorKind kind, double tau) const;

  const basis::BasisSet& late_basis() const { return late_basis_; }
  const linalg::Matrix& design() const { return g_; }
  const FusionOptions& options() const { return options_; }

 private:
  void require_data() const;
  /// Lazily-built kernel B = G D^{-1} G^T of g_; read by the CV engine
  /// and the workspace, and freed once both exist.
  const linalg::Matrix& kernel() const;
  void release_kernel_if_consumed() const;
  CvEngine& engine();
  /// Lazily-built amortized solver over (g_, f_, q); shared by both priors.
  const MapSolverWorkspace& workspace() const;

  basis::BasisSet late_basis_;
  FusionOptions options_;
  CoefficientPrior zm_prior_;
  CoefficientPrior nzm_prior_;
  linalg::Matrix g_;
  linalg::Vector f_;
  bool has_data_ = false;
  std::unique_ptr<CvEngine> engine_;
  std::optional<CvCurve> zm_curve_;
  std::optional<CvCurve> nzm_curve_;
  // Kernel and amortized MAP solver state, built on first use (mutable:
  // fit_at is logically const — the caches only change cost).
  mutable std::optional<linalg::Matrix> kernel_;
  mutable std::unique_ptr<MapSolverWorkspace> workspace_;
  mutable std::optional<MapSolverWorkspace::ProjectedMean> nzm_mean_;
};

/// One-call convenience wrapper: construct, bind, fit.
FusionResult bmf_fit(const basis::BasisSet& late_basis,
                     const linalg::Vector& early_coeffs,
                     const std::vector<char>& informative,
                     const linalg::Matrix& points, const linalg::Vector& f,
                     PriorSelection selection = PriorSelection::kAuto,
                     const FusionOptions& options = {});

}  // namespace bmf::core
