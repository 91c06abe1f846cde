#include "bmf/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "bmf/map_solver.hpp"
#include "linalg/blas.hpp"
#include "regress/omp.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace bmf::core {
namespace {

// Synthetic early/late pair: sparse late truth, early = perturbed late.
struct Scenario {
  basis::BasisSet basis;
  linalg::Vector late_truth;
  linalg::Vector early;
  linalg::Matrix train_points;
  linalg::Vector train_f;
  linalg::Matrix test_points;
  linalg::Vector test_f;
};

Scenario make_scenario(std::size_t r, std::size_t k_train, double drift,
                       double noise, std::uint64_t seed) {
  stats::Rng rng(seed);
  Scenario s;
  s.basis = basis::BasisSet::linear(r);
  const std::size_t m = r + 1;
  s.late_truth.assign(m, 0.0);
  s.late_truth[0] = 1.0;
  for (std::size_t j = 1; j < m; ++j) {
    // Sparse decaying spectrum: a few strong coefficients, many tiny.
    const double mag = (j <= m / 5) ? 1.0 / static_cast<double>(j) : 1e-3;
    s.late_truth[j] = mag * rng.normal();
  }
  s.early.resize(m);
  for (std::size_t j = 0; j < m; ++j)
    s.early[j] = s.late_truth[j] * (1.0 + drift * rng.normal());

  auto sample = [&](std::size_t n, linalg::Matrix& pts, linalg::Vector& f) {
    pts.assign(n, r);
    f.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      double v = s.late_truth[0];
      for (std::size_t j = 0; j < r; ++j) {
        const double x = rng.normal();
        pts(i, j) = x;
        v += s.late_truth[j + 1] * x;
      }
      f[i] = v + rng.normal(0.0, noise);
    }
  };
  sample(k_train, s.train_points, s.train_f);
  sample(200, s.test_points, s.test_f);
  return s;
}

double test_error(const Scenario& s, const basis::PerformanceModel& m) {
  return stats::relative_error(m.predict(s.test_points), s.test_f);
}

TEST(Fusion, BeatsOmpInUnderdeterminedRegime) {
  // The headline claim: with K << M, BMF with a decent prior beats OMP.
  Scenario s = make_scenario(80, 30, 0.1, 0.02, 1);
  FusionResult res = bmf_fit(s.basis, s.early, {}, s.train_points, s.train_f);
  auto omp_model = regress::omp_fit(s.basis, s.train_points, s.train_f);
  EXPECT_LT(test_error(s, res.model), test_error(s, omp_model));
  EXPECT_LT(test_error(s, res.model), 0.2);
}

TEST(Fusion, PriorSelectionPicksBetterPrior) {
  // Auto selection must match the better of the two fixed-prior fits in
  // CV error.
  Scenario s = make_scenario(40, 25, 0.3, 0.05, 2);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  FusionResult auto_res = fitter.fit(PriorSelection::kAuto);
  const double zm = fitter.zero_mean_curve().best_error();
  const double nzm = fitter.nonzero_mean_curve().best_error();
  EXPECT_DOUBLE_EQ(auto_res.report.cv_error, std::min(zm, nzm));
  EXPECT_EQ(auto_res.report.chosen_kind, zm <= nzm
                                             ? PriorKind::kZeroMean
                                             : PriorKind::kNonzeroMean);
  ASSERT_TRUE(auto_res.report.zm_curve.has_value());
  ASSERT_TRUE(auto_res.report.nzm_curve.has_value());
}

TEST(Fusion, FixedSelectionOnlyEvaluatesOneCurve) {
  Scenario s = make_scenario(30, 20, 0.2, 0.05, 3);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  FusionResult res = fitter.fit(PriorSelection::kZeroMean);
  EXPECT_EQ(res.report.chosen_kind, PriorKind::kZeroMean);
  EXPECT_TRUE(res.report.zm_curve.has_value());
  EXPECT_FALSE(res.report.nzm_curve.has_value());
}

TEST(Fusion, AccuratePriorNzmBeatsZm) {
  // Nearly exact early model: the sign information should give NZM the
  // edge (paper Section III-A discussion).
  Scenario s = make_scenario(60, 25, 0.02, 0.05, 4);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  auto zm = fitter.fit(PriorSelection::kZeroMean);
  auto nzm = fitter.fit(PriorSelection::kNonzeroMean);
  EXPECT_LT(test_error(s, nzm.model), test_error(s, zm.model));
}

TEST(Fusion, SignFlippedPriorZmBeatsNzm) {
  // Flip the sign of every early coefficient: magnitude info stays right,
  // sign info becomes poison -> ZM must win (the paper's frequency case).
  // Low noise so the methods are differentiated above the error floor.
  Scenario s = make_scenario(60, 25, 0.02, 0.005, 5);
  for (double& e : s.early) e = -e;
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  auto zm = fitter.fit(PriorSelection::kZeroMean);
  auto nzm = fitter.fit(PriorSelection::kNonzeroMean);
  EXPECT_LT(test_error(s, zm.model), test_error(s, nzm.model));
  // And BMF-PS must track the winner.
  auto ps = fitter.fit(PriorSelection::kAuto);
  EXPECT_EQ(ps.report.chosen_kind, PriorKind::kZeroMean);
}

TEST(Fusion, ErrorDecreasesWithMoreSamples) {
  Scenario small = make_scenario(50, 15, 0.15, 0.05, 6);
  Scenario large = make_scenario(50, 120, 0.15, 0.05, 6);
  auto r_small =
      bmf_fit(small.basis, small.early, {}, small.train_points, small.train_f);
  auto r_large =
      bmf_fit(large.basis, large.early, {}, large.train_points, large.train_f);
  EXPECT_LT(test_error(large, r_large.model), test_error(small, r_small.model));
}

TEST(Fusion, MappedPriorConstructorWorksEndToEnd) {
  // Early model over 2 variables; late stage splits each into 2 fingers and
  // adds one parasitic variable that actually matters.
  basis::PerformanceModel early(basis::BasisSet::linear(2), {0.0, 2.0, -1.0});
  MultifingerMap map({2, 2}, 1);
  MappedPrior mapped = map.map_linear_model(early);

  stats::Rng rng(7);
  const std::size_t k = 40, r_late = map.num_late_vars();
  const double s2 = std::sqrt(2.0);
  linalg::Matrix pts(k, r_late);
  linalg::Vector f(k);
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < r_late; ++j) pts(i, j) = rng.normal();
    // Late truth: fingers inherit beta with slight drift; parasitic adds in.
    f[i] = (2.0 / s2) * 1.05 * pts(i, 0) + (2.0 / s2) * 0.95 * pts(i, 1) -
           (1.0 / s2) * (pts(i, 2) + pts(i, 3)) + 0.8 * pts(i, 4) +
           rng.normal(0.0, 0.01);
  }
  BmfFitter fitter(mapped);
  fitter.set_data(pts, f);
  FusionResult res = fitter.fit();
  // Parasitic coefficient recovered from data despite missing prior.
  EXPECT_NEAR(res.model.coefficients()[5], 0.8, 0.1);
  // Finger coefficients close to the drifted truth.
  EXPECT_NEAR(res.model.coefficients()[1], 2.0 / s2 * 1.05, 0.15);
}

TEST(Fusion, FitAtRespectsExplicitParameters) {
  Scenario s = make_scenario(20, 15, 0.1, 0.02, 8);
  BmfFitter fitter(s.basis, s.early, {}, {});
  fitter.set_data(s.train_points, s.train_f);
  // Huge tau with NZM pins the early model.
  auto pinned = fitter.fit_at(PriorKind::kNonzeroMean, 1e12);
  for (std::size_t j = 0; j < s.early.size(); ++j)
    EXPECT_NEAR(pinned.coefficients()[j], s.early[j], 1e-3);
}

TEST(Fusion, RequiresDataBeforeFitting) {
  Scenario s = make_scenario(10, 8, 0.1, 0.02, 9);
  BmfFitter fitter(s.basis, s.early, {}, {});
  EXPECT_THROW(fitter.fit(), std::logic_error);
  EXPECT_THROW(fitter.fit_at(PriorKind::kZeroMean, 1.0), std::logic_error);
  EXPECT_THROW(fitter.zero_mean_curve(), std::logic_error);
}

TEST(Fusion, ValidatesShapes) {
  EXPECT_THROW(BmfFitter(basis::BasisSet::linear(3), {1.0, 2.0}, {}, {}),
               std::invalid_argument);
  Scenario s = make_scenario(10, 8, 0.1, 0.02, 10);
  BmfFitter fitter(s.basis, s.early, {}, {});
  EXPECT_THROW(fitter.set_design(linalg::Matrix(4, 3), {1, 2, 3, 4}),
               std::invalid_argument);
}

TEST(Fusion, SelectionToString) {
  EXPECT_STREQ(to_string(PriorSelection::kZeroMean), "BMF-ZM");
  EXPECT_STREQ(to_string(PriorSelection::kNonzeroMean), "BMF-NZM");
  EXPECT_STREQ(to_string(PriorSelection::kAuto), "BMF-PS");
}

TEST(Fusion, DirectAndFastSolversGiveSameModel) {
  // The fitted model comes from the shared-kernel workspace; the direct
  // Cholesky solve at the chosen (prior, tau) must give the same model.
  Scenario s = make_scenario(25, 20, 0.1, 0.02, 11);
  BmfFitter fitter(s.basis, s.early);
  fitter.set_data(s.train_points, s.train_f);
  auto fast = fitter.fit(PriorSelection::kAuto);
  const PriorOptions& popt = fitter.options().prior;
  const auto prior =
      fast.report.chosen_kind == PriorKind::kZeroMean
          ? CoefficientPrior::zero_mean(s.early, {}, popt)
          : CoefficientPrior::nonzero_mean(s.early, {}, popt);
  const linalg::Vector direct = map_solve_direct(
      fitter.design(), s.train_f, prior, fast.report.chosen_tau);
  for (std::size_t j = 0; j < s.early.size(); ++j)
    EXPECT_NEAR(fast.model.coefficients()[j], direct[j], 1e-6);
}

}  // namespace
}  // namespace bmf::core
