#include "bmf/map_solver.hpp"

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
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

TEST(MapSolver, DirectMatchesHandSolvedTinyCase) {
  // One sample, one coefficient: (tau q + g^2) a = tau q mu + g f.
  linalg::Matrix g{{2.0}};
  linalg::Vector f{6.0};
  auto prior = CoefficientPrior::nonzero_mean({1.0});
  // q = 1, tau = 4: (4 + 4) a = 4*1 + 2*6 = 16 -> a = 2.
  linalg::Vector a = map_solve_direct(g, f, prior, 4.0);
  EXPECT_NEAR(a[0], 2.0, 1e-12);
}

TEST(MapSolver, ZeroMeanShrinksTowardZeroAsTauGrows) {
  stats::Rng rng(1);
  Problem p = make_problem(20, 8, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  linalg::Vector weak = map_solve_direct(p.g, p.f, prior, 1e-8);
  linalg::Vector strong = map_solve_direct(p.g, p.f, prior, 1e8);
  EXPECT_LT(linalg::norm2(strong), 0.1 * linalg::norm2(weak));
}

TEST(MapSolver, NonzeroMeanConvergesToEarlyModelAsTauGrows) {
  stats::Rng rng(2);
  Problem p = make_problem(20, 8, rng);
  auto prior = CoefficientPrior::nonzero_mean(p.early);
  linalg::Vector a = map_solve_direct(p.g, p.f, prior, 1e10);
  for (std::size_t j = 0; j < 8; ++j)
    EXPECT_NEAR(a[j], p.early[j], 1e-3) << "j=" << j;
}

TEST(MapSolver, SmallTauApproachesLeastSquaresWhenOverdetermined) {
  stats::Rng rng(3);
  Problem p = make_problem(40, 6, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  linalg::Vector a = map_solve_direct(p.g, p.f, prior, 1e-10);
  // LS solution via normal equations.
  linalg::Matrix gram = linalg::gram(p.g);
  linalg::Vector ls =
      linalg::Cholesky(gram).solve(linalg::gemv_t(p.g, p.f));
  for (std::size_t j = 0; j < 6; ++j) EXPECT_NEAR(a[j], ls[j], 1e-6);
}

class FastVsDirect
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 PriorKind, double>> {};

TEST_P(FastVsDirect, Agree) {
  const auto [k, m, kind, tau] = GetParam();
  stats::Rng rng(k * 31 + m);
  Problem p = make_problem(k, m, rng);
  auto prior = kind == PriorKind::kZeroMean
                   ? CoefficientPrior::zero_mean(p.early)
                   : CoefficientPrior::nonzero_mean(p.early);
  linalg::Vector direct = map_solve_direct(p.g, p.f, prior, tau);
  linalg::Vector fast = map_solve_fast(p.g, p.f, prior, tau);
  const double scale = linalg::norm_inf(direct) + 1.0;
  for (std::size_t j = 0; j < m; ++j)
    EXPECT_NEAR(fast[j], direct[j], 1e-7 * scale)
        << "k=" << k << " m=" << m << " tau=" << tau;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FastVsDirect,
    ::testing::Combine(::testing::Values<std::size_t>(5, 20),
                       ::testing::Values<std::size_t>(8, 40, 120),
                       ::testing::Values(PriorKind::kZeroMean,
                                         PriorKind::kNonzeroMean),
                       ::testing::Values(1e-2, 1.0, 1e2)));

TEST(MapSolver, MissingPriorCoefficientsFollowDataOnly) {
  // Two columns: one with a wildly wrong prior marked missing, one
  // informative. The missing one must be fit from data regardless of tau.
  stats::Rng rng(4);
  const std::size_t k = 30;
  linalg::Matrix g(k, 2);
  linalg::Vector f(k);
  for (std::size_t i = 0; i < k; ++i) {
    g(i, 0) = rng.normal();
    g(i, 1) = rng.normal();
    f[i] = 3.0 * g(i, 0) + 5.0 * g(i, 1);
  }
  // Early says column 0 ~ 3 (good); column 1 prior is missing.
  auto prior = CoefficientPrior::nonzero_mean({3.0, -100.0}, {1, 0});
  linalg::Vector a = map_solve_fast(g, f, prior, 10.0);
  EXPECT_NEAR(a[0], 3.0, 0.05);
  EXPECT_NEAR(a[1], 5.0, 0.05);  // not dragged toward -100
}

TEST(MapSolver, Validation) {
  linalg::Matrix g(3, 2);
  linalg::Vector f(3, 0.0);
  auto prior = CoefficientPrior::zero_mean({1.0, 1.0});
  EXPECT_THROW(map_solve_direct(g, f, prior, 0.0), std::invalid_argument);
  EXPECT_THROW(map_solve_direct(g, f, prior, -1.0), std::invalid_argument);
  EXPECT_THROW(map_solve_direct(g, {1.0}, prior, 1.0),
               std::invalid_argument);
  auto wrong = CoefficientPrior::zero_mean({1.0, 1.0, 1.0});
  EXPECT_THROW(map_solve_direct(g, f, wrong, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace bmf::core
