// Maximum-a-posteriori estimation of the late-stage model coefficients
// (paper Section III-B), with the two solver implementations benchmarked
// in Section V:
//
//  * map_solve_direct — forms the M x M posterior precision and Cholesky-
//    factorizes it (the "conventional solver" of Fig. 5);
//  * map_solve_fast   — the Sherman-Morrison-Woodbury low-rank update of
//    Section IV-C (Eq. 53-58), which only ever factorizes a K x K matrix.
//
// Both solve the same normal equations
//   (tau * D + G^T G) alpha = tau * D * mu + G^T f
// exactly (no approximation), so their results agree to solver tolerance.
//
// For repeated solves on the same (G, f, prior) — hyper-parameter sweeps,
// BMF-PS evaluating both priors — use MapSolverWorkspace
// (bmf/solver_workspace.hpp), which pays the factorization once and then
// solves each tau in O(K^2 + K M).
#pragma once

#include "bmf/prior.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace bmf::core {

/// MAP coefficients via the dense M x M route (Eq. 28-35).
/// tau is sigma_0^2 for the zero-mean prior and eta for the nonzero-mean
/// prior; it must be positive.
linalg::Vector map_solve_direct(const linalg::Matrix& g,
                                const linalg::Vector& f,
                                const CoefficientPrior& prior, double tau);

/// MAP coefficients via the Woodbury low-rank route (Eq. 55/58).
linalg::Vector map_solve_fast(const linalg::Matrix& g,
                              const linalg::Vector& f,
                              const CoefficientPrior& prior, double tau);

/// A MAP solve that degrades instead of throwing when the posterior
/// precision is numerically indefinite (near-duplicate sampling points,
/// extreme tau). `report` records how far down the ladder — plain
/// Cholesky, diagonal jitter, eigendecomposition pseudo-solve — the solve
/// had to go; report.degraded() is the flag the serving layer forwards to
/// clients as a structured diagnostic.
struct RobustMapResult {
  linalg::Vector coefficients;
  linalg::RobustSpdReport report;
};

/// map_solve_direct through linalg::robust_spd_solve. Input-shape and
/// positivity violations (tau <= 0, size mismatches) still throw — those
/// are caller bugs, not numeric conditioning.
RobustMapResult map_solve_robust(const linalg::Matrix& g,
                                 const linalg::Vector& f,
                                 const CoefficientPrior& prior, double tau);

}  // namespace bmf::core
