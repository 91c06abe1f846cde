#include "bmf/solver_workspace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "bmf/cross_validation.hpp"
#include "bmf/fusion.hpp"
#include "bmf/map_solver.hpp"
#include "linalg/blas.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

struct Problem {
  linalg::Matrix g;
  linalg::Vector f;
  linalg::Vector early;
};

Problem make_problem(std::size_t k, std::size_t m, stats::Rng& rng) {
  Problem p;
  p.g.assign(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) p.g(i, j) = rng.normal();
  p.early.resize(m);
  for (double& e : p.early) e = rng.normal(0.0, 1.0);
  p.f.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) v += p.early[j] * p.g(i, j);
    p.f[i] = v + rng.normal(0.0, 0.05);
  }
  return p;
}

void expect_close(const linalg::Vector& got, const linalg::Vector& want,
                  double rel, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  const double scale = linalg::norm_inf(want) + 1.0;
  for (std::size_t j = 0; j < want.size(); ++j)
    EXPECT_NEAR(got[j], want[j], rel * scale) << what << " j=" << j;
}

TEST(MapKernel, MatchesExplicitWeightedProduct) {
  // B = G D^{-1} G^T with D = diag(q); a missing prior entry gets the flat
  // (tiny-q) scale, so its column dominates B.
  stats::Rng rng(19);
  Problem p = make_problem(9, 7, rng);
  std::vector<char> informative(7, 1);
  informative[2] = 0;
  const auto prior = CoefficientPrior::zero_mean(p.early, informative);
  const linalg::Vector& q = prior.precision_scale();
  const linalg::Matrix b = map_kernel(p.g, prior);
  ASSERT_EQ(b.rows(), 9u);
  ASSERT_EQ(b.cols(), 9u);
  for (std::size_t i = 0; i < 9; ++i)
    for (std::size_t j = 0; j < 9; ++j) {
      double ref = 0.0;
      for (std::size_t m = 0; m < 7; ++m)
        ref += p.g(i, m) * p.g(j, m) / q[m];
      EXPECT_NEAR(b(i, j), ref, 1e-12 * (std::abs(ref) + 1.0))
          << "i=" << i << " j=" << j;
      EXPECT_EQ(b(i, j), b(j, i));
    }
}

TEST(MapKernel, SharedByZeroMeanAndNonzeroMeanPriors) {
  // Both priors use q_m = 1/alpha_E,m^2, so one kernel serves both.
  stats::Rng rng(20);
  Problem p = make_problem(12, 8, rng);
  const linalg::Matrix zm =
      map_kernel(p.g, CoefficientPrior::zero_mean(p.early));
  const linalg::Matrix nzm =
      map_kernel(p.g, CoefficientPrior::nonzero_mean(p.early));
  ASSERT_EQ(zm.size(), nzm.size());
  EXPECT_TRUE(std::equal(zm.data(), zm.data() + zm.size(), nzm.data()));
}

TEST(MapKernel, Validation) {
  linalg::Matrix g(4, 3);
  EXPECT_THROW(map_kernel(g, CoefficientPrior::zero_mean({1.0, 1.0})),
               std::invalid_argument);
}

TEST(PsdEigen, ReconstructsRankDeficientKernel) {
  // K > M: B has rank M, so K - M eigenvalues are zero in exact arithmetic.
  // Roundoff-sized negatives are clamped without counting as degradation.
  stats::Rng rng(21);
  Problem p = make_problem(12, 5, rng);
  const linalg::Matrix b =
      map_kernel(p.g, CoefficientPrior::zero_mean(p.early));
  const PsdEigen e = psd_eigen(b);
  EXPECT_EQ(e.clamped, 0u);
  double wmax = 0.0;
  for (double w : e.values) {
    EXPECT_GE(w, 0.0);
    wmax = std::max(wmax, w);
  }
  EXPECT_GT(e.min_eigenvalue, -1e-12 * wmax);
  for (std::size_t i = 0; i < 12; ++i)
    for (std::size_t j = 0; j < 12; ++j) {
      double r = 0.0;
      for (std::size_t k = 0; k < 12; ++k)
        r += e.vectors(i, k) * e.values[k] * e.vectors(j, k);
      EXPECT_NEAR(r, b(i, j), 1e-10 * wmax) << "i=" << i << " j=" << j;
    }
}

TEST(PsdEigen, CountsOnlyClampsBeyondRoundoff) {
  // Spectrum {-1, -1e-14, 4}: both negatives are clamped to zero, but only
  // -1 lies below -1e-12 * 4 and counts as a genuinely indefinite clamp.
  linalg::Matrix b{{4.0, 0.0, 0.0}, {0.0, -1.0, 0.0}, {0.0, 0.0, -1e-14}};
  const PsdEigen e = psd_eigen(b);
  EXPECT_EQ(e.clamped, 1u);
  EXPECT_EQ(e.min_eigenvalue, -1.0);
  ASSERT_EQ(e.values.size(), 3u);
  EXPECT_EQ(e.values[0], 0.0);
  EXPECT_EQ(e.values[1], 0.0);
  EXPECT_NEAR(e.values[2], 4.0, 1e-14);
}

TEST(SolverWorkspace, MatchesHandSolvedTinyCase) {
  // One sample, one coefficient: (tau q + g^2) a = tau q mu + g f.
  // q = 1, tau = 4: (4 + 4) a = 4*1 + 2*6 = 16 -> a = 2.
  linalg::Matrix g{{2.0}};
  linalg::Vector f{6.0};
  auto prior = CoefficientPrior::nonzero_mean({1.0});
  MapSolverWorkspace ws(g, f, prior);
  linalg::Vector a = ws.solve(4.0);
  EXPECT_NEAR(a[0], 2.0, 1e-12);
}

class WorkspaceVsDirect
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 PriorKind>> {};

TEST_P(WorkspaceVsDirect, AgreeAcrossTauGrid) {
  const auto [k, m, kind] = GetParam();
  stats::Rng rng(k * 37 + m);
  Problem p = make_problem(k, m, rng);
  auto prior = kind == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  EXPECT_EQ(ws.num_samples(), k);
  EXPECT_EQ(ws.num_bases(), m);
  linalg::Vector taus = log_grid(1e-3, 1e3, 13);
  for (double tau : taus) {
    linalg::Vector direct = map_solve_direct(p.g, p.f, prior, tau);
    expect_close(ws.solve(tau), direct, 1e-7, "workspace-vs-direct");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkspaceVsDirect,
    ::testing::Combine(::testing::Values<std::size_t>(5, 20),
                       ::testing::Values<std::size_t>(8, 40, 120),
                       ::testing::Values(PriorKind::kZeroMean,
                                         PriorKind::kNonzeroMean)));

TEST(SolverWorkspace, MissingPriorEntriesMatchDirect) {
  // Flat-prior (missing) columns get a wide variance in q; the workspace
  // must reproduce the direct solution for those too.
  stats::Rng rng(11);
  Problem p = make_problem(25, 12, rng);
  std::vector<char> informative(12, 1);
  informative[3] = informative[7] = informative[11] = 0;
  auto prior = CoefficientPrior::nonzero_mean(p.early, informative);
  MapSolverWorkspace ws(p.g, p.f, prior);
  for (double tau : {1e-2, 1.0, 1e2}) {
    linalg::Vector direct = map_solve_direct(p.g, p.f, prior, tau);
    expect_close(ws.solve(tau), direct, 1e-7, "missing-prior");
  }
}

TEST(SolverWorkspace, ProjectedMeanReuseMatchesOnTheFlyProjection) {
  stats::Rng rng(12);
  Problem p = make_problem(15, 30, rng);
  auto zm = CoefficientPrior::zero_mean(p.early);
  auto nzm = CoefficientPrior::nonzero_mean(p.early);
  // Workspace built from the ZM prior (same q), NZM mean projected once.
  MapSolverWorkspace ws(p.g, p.f, zm);
  MapSolverWorkspace::ProjectedMean mean = ws.project_mean(nzm.mean());
  for (double tau : {1e-1, 1.0, 10.0}) {
    linalg::Vector cached = ws.solve(tau, mean);
    linalg::Vector fly = ws.solve(tau, nzm.mean());
    EXPECT_EQ(cached, fly) << "tau=" << tau;
    expect_close(cached, map_solve_direct(p.g, p.f, nzm, tau), 1e-7,
                 "cached-mean");
  }
}

TEST(SolverWorkspace, ZeroMeanProjectionShortCircuits) {
  stats::Rng rng(13);
  Problem p = make_problem(10, 6, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  auto mean = ws.project_mean(linalg::Vector(6, 0.0));
  EXPECT_TRUE(mean.mu.empty());
  EXPECT_TRUE(mean.vb1.empty());
  EXPECT_EQ(ws.solve(2.0, mean), ws.solve(2.0));
}

TEST(SolverWorkspace, TauGridMatchesPerTauFastSolves) {
  // One workspace answers a whole tau grid; each point must match a fresh
  // per-tau Woodbury solve.
  stats::Rng rng(14);
  Problem p = make_problem(20, 15, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  for (double tau : log_grid(1e-2, 1e2, 7))
    expect_close(ws.solve(tau), map_solve_fast(p.g, p.f, prior, tau), 1e-7,
                 "tau-grid");
}

TEST(SolverWorkspace, Validation) {
  stats::Rng rng(15);
  Problem p = make_problem(8, 4, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  MapSolverWorkspace ws(p.g, p.f, prior);
  EXPECT_THROW(ws.solve(0.0), std::invalid_argument);
  EXPECT_THROW(ws.solve(-1.0), std::invalid_argument);
  EXPECT_THROW(ws.project_mean(linalg::Vector(3, 1.0)), std::invalid_argument);
  EXPECT_THROW(MapSolverWorkspace(p.g, p.f, prior, linalg::Matrix(7, 7)),
               std::invalid_argument);
}

TEST(SolverWorkspace, FitterFastPathMatchesDirectSolver) {
  // BmfFitter::fit_at routes through the shared workspace; it must agree
  // with the direct solver for both priors.
  stats::Rng rng(16);
  Problem p = make_problem(30, 10, rng);
  // A moderately wrong prior keeps the problem well-conditioned.
  BmfFitter fitter(basis::BasisSet::total_degree(1, 9), p.early);
  fitter.set_design(p.g, p.f);
  const PriorOptions& popt = fitter.options().prior;
  const auto zm = CoefficientPrior::zero_mean(p.early, {}, popt);
  const auto nzm = CoefficientPrior::nonzero_mean(p.early, {}, popt);
  for (double tau : {1e-1, 1.0, 10.0}) {
    expect_close(fitter.fit_at(PriorKind::kZeroMean, tau).coefficients(),
                 map_solve_direct(p.g, p.f, zm, tau), 1e-7, "fit_at ZM");
    expect_close(fitter.fit_at(PriorKind::kNonzeroMean, tau).coefficients(),
                 map_solve_direct(p.g, p.f, nzm, tau), 1e-7, "fit_at NZM");
  }
}

TEST(SolverWorkspace, FitterMatchesStandaloneWorkspaceBitwise) {
  // The fitter hands the kernel it built for the CV engine to its workspace.
  // That must not move the final solve by a single bit: fit_at equals a
  // standalone workspace built from the ZM prior, for both priors, with and
  // without missing prior entries.
  stats::Rng rng(18);
  Problem p = make_problem(40, 24, rng);
  std::vector<char> missing(24, 1);
  missing[4] = missing[9] = missing[17] = 0;
  for (const std::vector<char>& informative : {std::vector<char>{}, missing}) {
    BmfFitter fitter(basis::BasisSet::total_degree(1, 23), p.early,
                     informative);
    fitter.set_design(p.g, p.f);
    const PriorOptions& popt = fitter.options().prior;
    const auto zm = CoefficientPrior::zero_mean(p.early, informative, popt);
    const auto nzm =
        CoefficientPrior::nonzero_mean(p.early, informative, popt);
    MapSolverWorkspace ws(p.g, p.f, zm);
    fitter.fit();
    for (double tau : {1e-3, 1e-1, 1.0, 10.0}) {
      EXPECT_EQ(fitter.fit_at(PriorKind::kZeroMean, tau).coefficients(),
                ws.solve(tau))
          << "ZM tau=" << tau;
      EXPECT_EQ(fitter.fit_at(PriorKind::kNonzeroMean, tau).coefficients(),
                ws.solve(tau, nzm.mean()))
          << "NZM tau=" << tau;
    }
  }
}

}  // namespace
}  // namespace bmf::core
