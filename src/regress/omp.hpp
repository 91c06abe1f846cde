// Orthogonal matching pursuit (paper Section II-C; baseline of Section V).
//
// Greedy sparse regression after Li, TCAD'10 [13]: at each step pick the
// basis column with the largest correlation to the current residual, then
// refit the active set by least squares. The number of selected terms is
// chosen on a held-out validation split, mirroring the cross-validated
// stopping of [13].
//
// Cost of step s on K training rows, with M' <= M columns still eligible:
//   * correlation scan O(K*M'), over a packed panel of the eligible
//     columns, parallel over column blocks;
//   * column append O(K*s) (two-pass Gram-Schmidt against s columns);
//   * residual update O(K) (one axpy with the new column).
// The validation error of prefix s costs an O(s^2) back-substitution plus
// an O(K_val*s) prediction; all prefixes run after the path, in parallel.
// The final refit is the final path's own factorization: one O(s^2)
// back-substitution. The output is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "basis/model.hpp"

namespace bmf::regress {

struct OmpOptions {
  /// Hard cap on selected terms; 0 means min(K - holdout, M).
  std::size_t max_terms = 0;
  /// Stop early when the residual 2-norm drops below
  /// tolerance * ||f||_2.
  double residual_tolerance = 1e-10;
  /// Fraction of samples held out to pick the stopping step. Set to 0 to
  /// disable validation-based stopping and run to max_terms/tolerance.
  double validation_fraction = 0.2;
  /// Seed for the train/validation shuffle.
  std::uint64_t seed = 1;
};

struct OmpResult {
  /// Dense coefficient vector over the full basis (zeros off the support).
  linalg::Vector coefficients;
  /// Selected basis-term indices, in selection order.
  std::vector<std::size_t> selected;
  /// Validation error at each prefix length (empty when validation is off).
  std::vector<double> validation_errors;
};

/// Run OMP on a precomputed design matrix g (K x M) and responses f (K).
OmpResult omp_solve(const linalg::Matrix& g, const linalg::Vector& f,
                    const OmpOptions& options = {});

/// Convenience wrapper producing a PerformanceModel.
basis::PerformanceModel omp_fit(const basis::BasisSet& basis,
                                const linalg::Matrix& points,
                                const linalg::Vector& f,
                                const OmpOptions& options = {});

}  // namespace bmf::regress
