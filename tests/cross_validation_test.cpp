#include "bmf/cross_validation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "bmf/map_solver.hpp"
#include "linalg/blas.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

TEST(LogGrid, EndpointsAndMonotone) {
  linalg::Vector g = log_grid(0.01, 100.0, 5);
  ASSERT_EQ(g.size(), 5u);
  EXPECT_NEAR(g.front(), 0.01, 1e-12);
  EXPECT_NEAR(g.back(), 100.0, 1e-9);
  EXPECT_NEAR(g[2], 1.0, 1e-9);  // geometric midpoint
  for (std::size_t i = 1; i < 5; ++i) EXPECT_GT(g[i], g[i - 1]);
}

TEST(LogGrid, SinglePointIsGeometricMean) {
  linalg::Vector g = log_grid(1.0, 100.0, 1);
  ASSERT_EQ(g.size(), 1u);
  EXPECT_NEAR(g[0], 10.0, 1e-9);
}

TEST(LogGrid, Validates) {
  EXPECT_THROW(log_grid(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(log_grid(2.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(log_grid(1.0, 2.0, 0), std::invalid_argument);
}

TEST(TauGridCenter, UsesResponseVariance) {
  // Sample variance of {0, 2, 4} is 4.
  EXPECT_NEAR(tau_grid_center({0.0, 2.0, 4.0}), 4.0, 1e-12);
  // Degenerate constant responses fall back to mean^2, then 1.
  EXPECT_NEAR(tau_grid_center({3.0, 3.0}), 9.0, 1e-12);
  EXPECT_NEAR(tau_grid_center({0.0, 0.0}), 1.0, 1e-12);
}

struct Problem {
  linalg::Matrix g;
  linalg::Vector f;
  linalg::Vector early;
};

Problem make_problem(std::size_t k, std::size_t m, double noise,
                     stats::Rng& rng) {
  Problem p;
  p.g.assign(k, m);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < m; ++j) p.g(i, j) = rng.normal();
  p.early.resize(m);
  for (double& e : p.early) e = rng.normal();
  p.f.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) v += p.early[j] * p.g(i, j);
    p.f[i] = v + rng.normal(0.0, noise);
  }
  return p;
}

// Brute-force reference: for each fold and tau, run the direct MAP solver
// on the training rows and evaluate the held-out relative error.
CvCurve brute_force_cv(const linalg::Matrix& g, const linalg::Vector& f,
                       const CoefficientPrior& prior,
                       const linalg::Vector& taus, std::size_t folds,
                       std::uint64_t seed) {
  CvCurve curve;
  curve.taus.assign(taus.begin(), taus.end());
  curve.errors.assign(taus.size(), 0.0);
  stats::Rng rng(seed);
  stats::KFold kf(g.rows(), folds, rng);
  for (std::size_t fi = 0; fi < folds; ++fi) {
    auto split = kf.split(fi);
    linalg::Matrix gt(split.train.size(), g.cols());
    linalg::Vector ft(split.train.size());
    for (std::size_t i = 0; i < split.train.size(); ++i) {
      gt.set_row(i, g.row(split.train[i]));
      ft[i] = f[split.train[i]];
    }
    linalg::Matrix ge(split.test.size(), g.cols());
    linalg::Vector fe(split.test.size());
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      ge.set_row(i, g.row(split.test[i]));
      fe[i] = f[split.test[i]];
    }
    for (std::size_t ti = 0; ti < taus.size(); ++ti) {
      linalg::Vector a = map_solve_direct(gt, ft, prior, taus[ti]);
      linalg::Vector pred = linalg::gemv(ge, a);
      curve.errors[ti] += stats::relative_error(pred, fe);
    }
  }
  for (double& e : curve.errors) e /= static_cast<double>(folds);
  return curve;
}

class CvEngineVsBruteForce : public ::testing::TestWithParam<PriorKind> {};

TEST_P(CvEngineVsBruteForce, CurvesAgree) {
  struct Shape {
    std::size_t k, folds;
    bool missing_prior;  // flat (non-informative) prior on every 5th entry
  };
  // K = 33 with 4 folds gives 9/8/8/8 held-out rows, so the kernel slices
  // are uneven and their index lists interleave.
  for (const Shape shape : {Shape{30, 3, false}, Shape{33, 4, false},
                            Shape{30, 3, true}, Shape{33, 4, true}}) {
    SCOPED_TRACE(::testing::Message()
                 << "K=" << shape.k << " folds=" << shape.folds
                 << " missing_prior=" << shape.missing_prior);
    const std::size_t m = 50;
    stats::Rng rng(42);
    Problem p = make_problem(shape.k, m, 0.1, rng);
    // Perturb early coefficients so the prior is informative but imperfect.
    linalg::Vector early = p.early;
    for (double& e : early) e *= 1.1;
    std::vector<char> informative;
    if (shape.missing_prior) {
      informative.assign(m, 1);
      for (std::size_t j = 2; j < m; j += 5) informative[j] = 0;
    }

    auto prior = GetParam() == PriorKind::kZeroMean
                     ? CoefficientPrior::zero_mean(early, informative)
                     : CoefficientPrior::nonzero_mean(early, informative);
    CvOptions opt;
    opt.folds = shape.folds;
    opt.grid_size = 7;
    opt.seed = 9;

    const linalg::Matrix b = map_kernel(p.g, prior);
    CvEngine engine(p.g, p.f, b, opt);
    CvCurve fast = engine.evaluate(prior.mean());
    CvCurve ref = brute_force_cv(p.g, p.f, prior, engine.tau_grid(),
                                 opt.folds, opt.seed);
    ASSERT_EQ(fast.errors.size(), ref.errors.size());
    // The engine (like the final workspace solve and map_solve_fast) works
    // in the Woodbury form, whose prediction is a difference of two terms
    // of size ||B|| |f| divided by tau, built from K-term sums and an
    // eigendecomposition of B: its relative roundoff grows like
    // sqrt(K) eps ||B|| / tau (the typical, random-walk growth). Flat-prior
    // entries make B large enough for that to show at the small-tau end of
    // the grid, so those inputs get an extra sqrt(K) eps trace(B) / tau
    // (trace(B) >= ||B||) on top of the 1e-4.
    double trace = 0.0;
    for (std::size_t i = 0; i < b.rows(); ++i) trace += b(i, i);
    const double roundoff = std::sqrt(static_cast<double>(shape.k)) *
                            std::numeric_limits<double>::epsilon() * trace;
    for (std::size_t i = 0; i < fast.errors.size(); ++i) {
      const double rel =
          1e-4 + (shape.missing_prior ? roundoff / engine.tau_grid()[i] : 0.0);
      EXPECT_NEAR(fast.errors[i], ref.errors[i], 1e-6 + rel * ref.errors[i])
          << "grid point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Priors, CvEngineVsBruteForce,
                         ::testing::Values(PriorKind::kZeroMean,
                                           PriorKind::kNonzeroMean));

TEST(CvEngine, AccuratePriorFavorsLargeTauForNonzeroMean) {
  // When the prior mean equals the truth and data is noisy, CV error for
  // the nonzero-mean prior must decrease toward large tau.
  stats::Rng rng(7);
  Problem p = make_problem(25, 40, 0.5, rng);
  auto prior = CoefficientPrior::nonzero_mean(p.early);  // exact prior
  CvOptions opt;
  opt.folds = 5;
  opt.grid_size = 9;
  CvEngine engine(p.g, p.f, map_kernel(p.g, prior), opt);
  CvCurve c = engine.evaluate(prior.mean());
  EXPECT_LT(c.errors.back(), c.errors.front());
  EXPECT_GE(c.best_index(), 4u);  // optimum in the strong-prior half
}

TEST(CvEngine, WrongPriorMeanFavorsSmallTau) {
  stats::Rng rng(8);
  Problem p = make_problem(60, 20, 0.01, rng);
  // Prior mean is the *negated* truth: strong prior must hurt badly.
  linalg::Vector wrong = p.early;
  for (double& e : wrong) e = -e;
  auto prior = CoefficientPrior::nonzero_mean(wrong);
  CvOptions opt;
  opt.folds = 4;
  opt.grid_size = 9;
  CvEngine engine(p.g, p.f, map_kernel(p.g, prior), opt);
  CvCurve c = engine.evaluate(prior.mean());
  EXPECT_LT(c.best_index(), 4u);  // optimum in the weak-prior half
  EXPECT_GT(c.errors.back(), c.errors.front());
}

TEST(CvEngine, CurveBestIndexConsistent) {
  stats::Rng rng(9);
  Problem p = make_problem(20, 10, 0.1, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  CvEngine engine(p.g, p.f, map_kernel(p.g, prior), {});
  CvCurve c = engine.evaluate(prior.mean());
  const std::size_t bi = c.best_index();
  for (double e : c.errors) EXPECT_GE(e, c.errors[bi] - 1e-15);
  EXPECT_DOUBLE_EQ(c.best_tau(), c.taus[bi]);
  EXPECT_DOUBLE_EQ(c.best_error(), c.errors[bi]);
}

TEST(CvEngine, TauGridIsCenteredOnResponseVariance) {
  stats::Rng rng(10);
  Problem p = make_problem(15, 6, 0.1, rng);
  auto prior = CoefficientPrior::zero_mean(p.early);
  CvOptions opt;
  opt.folds = 3;
  opt.grid_size = 6;
  opt.grid_lo_rel = 1e-3;
  opt.grid_hi_rel = 1e2;
  CvEngine engine(p.g, p.f, map_kernel(p.g, prior), opt);
  EXPECT_EQ(engine.num_folds(), 3u);
  const double c = tau_grid_center(p.f);
  EXPECT_EQ(engine.tau_grid(), log_grid(c * 1e-3, c * 1e2, 6));
  const CvCurve curve = engine.evaluate(prior.mean());
  EXPECT_EQ(curve.taus, engine.tau_grid());
  EXPECT_EQ(curve.errors.size(), 6u);
}

TEST(CvEngine, Validates) {
  Problem p;
  p.g.assign(6, 4);
  p.f.assign(6, 0.0);
  auto prior = CoefficientPrior::zero_mean({1.0, 1.0, 1.0, 1.0});
  const linalg::Matrix b = map_kernel(p.g, prior);
  CvOptions opt;
  opt.folds = 7;  // > K
  EXPECT_THROW(CvEngine(p.g, p.f, b, opt), std::invalid_argument);
  opt.folds = 1;
  EXPECT_THROW(CvEngine(p.g, p.f, b, opt), std::invalid_argument);
  opt.folds = 2;
  CvEngine ok(p.g, p.f, b, opt);
  EXPECT_THROW(CvEngine(p.g, p.f, linalg::Matrix(5, 5), opt),
               std::invalid_argument);
  EXPECT_THROW(ok.evaluate({1.0}), std::invalid_argument);
}

TEST(CvCurve, EmptyThrows) {
  CvCurve c;
  EXPECT_THROW(c.best_index(), std::logic_error);
}

}  // namespace
}  // namespace bmf::core
