// Cross-module integration tests: miniature versions of the paper's
// experiments wired end-to-end, asserting the qualitative *shapes* the
// full benches reproduce at scale.
#include <gtest/gtest.h>

#include <cmath>

#include "bmf/fusion.hpp"
#include "bmf/map_solver.hpp"
#include "circuit/testcases.hpp"
#include "linalg/blas.hpp"
#include "regress/elastic_net.hpp"
#include "regress/least_squares.hpp"
#include "regress/omp.hpp"
#include "spice/circuits.hpp"
#include "stats/descriptive.hpp"

namespace bmf {
namespace {

double test_error(const circuit::Testcase&,
                  const basis::PerformanceModel& model,
                  const circuit::Dataset& test) {
  return stats::relative_error(model.predict(test.points), test.f);
}

TEST(Integration, MiniTableOne_BmfBeatsOmpAtSmallK) {
  // Table I's headline at reduced scale: at K = 60 samples over 300
  // variables, BMF-PS must beat OMP by a wide margin.
  circuit::Testcase tc =
      circuit::ring_oscillator_testcase(circuit::RoMetric::kPower, 300, 9);
  stats::Rng rng(100);
  circuit::Dataset train = tc.silicon.sample_late(60, rng);
  circuit::Dataset test = tc.silicon.sample_late(300, rng);

  regress::OmpOptions oopt;
  auto omp = regress::omp_fit(tc.silicon.late_basis(), train.points, train.f,
                              oopt);
  auto fused = core::bmf_fit(tc.silicon.late_basis(), tc.early_coeffs,
                             tc.informative, train.points, train.f);

  const double e_omp = test_error(tc, omp, test);
  const double e_bmf = test_error(tc, fused.model, test);
  EXPECT_LT(e_bmf, 0.5 * e_omp);
  EXPECT_LT(e_bmf, 0.02);
}

TEST(Integration, MiniTableOne_ErrorDecreasesWithK) {
  circuit::Testcase tc =
      circuit::ring_oscillator_testcase(circuit::RoMetric::kPower, 250, 11);
  stats::Rng rng(101);
  circuit::Dataset train = tc.silicon.sample_late(300, rng);
  circuit::Dataset test = tc.silicon.sample_late(300, rng);
  double prev = 1e9;
  for (std::size_t k : {40u, 120u, 300u}) {
    linalg::Matrix pts = train.points.block(0, 0, k, 250);
    linalg::Vector f(train.f.begin(), train.f.begin() + k);
    auto fused = core::bmf_fit(tc.silicon.late_basis(), tc.early_coeffs,
                               tc.informative, pts, f);
    const double e = test_error(tc, fused.model, test);
    EXPECT_LT(e, prev * 1.2);  // monotone up to noise
    prev = e;
  }
}

TEST(Integration, ElasticNetIsACompetitiveNoPriorBaseline) {
  // The elastic-net baseline (paper ref [15]) should land in the same
  // ballpark as OMP — both far behind BMF at small K.
  circuit::Testcase tc =
      circuit::ring_oscillator_testcase(circuit::RoMetric::kPower, 200, 13);
  stats::Rng rng(102);
  circuit::Dataset train = tc.silicon.sample_late(80, rng);
  circuit::Dataset test = tc.silicon.sample_late(300, rng);

  auto enet = regress::elastic_net_fit(tc.silicon.late_basis(), train.points,
                                       train.f);
  auto omp = regress::omp_fit(tc.silicon.late_basis(), train.points, train.f);
  auto fused = core::bmf_fit(tc.silicon.late_basis(), tc.early_coeffs,
                             tc.informative, train.points, train.f);

  const double e_enet = test_error(tc, enet, test);
  const double e_omp = test_error(tc, omp, test);
  const double e_bmf = test_error(tc, fused.model, test);
  EXPECT_LT(e_bmf, e_enet);
  EXPECT_LT(e_enet, 5.0 * e_omp + 0.05);  // same ballpark as OMP
}

TEST(Integration, SpiceDiffPairFlow) {
  // Miniature of examples/spice_diffpair: schematic LS model -> prior
  // mapping with 2 fingers -> fused post-layout model beats prior-only.
  stats::Rng rng(103);
  const double sigma_vth = 5e-3;

  auto simulate_schematic = [&](const linalg::Vector& x) {
    spice::DiffPairParams p;
    p.vth1 = 0.4 + sigma_vth * x[0];
    p.vth2 = 0.4 + sigma_vth * x[1];
    return spice::diff_pair_output_offset(p);
  };
  // Post-layout: model finger mismatch by aggregating pairs of variables
  // plus a small load mismatch x[4], x[5].
  auto simulate_late = [&](const linalg::Vector& x) {
    const double sf = sigma_vth * std::sqrt(2.0);
    spice::DiffPairParams p;
    p.vth1 = 0.4 + sf * 0.5 * (x[0] + x[1]);
    p.vth2 = 0.4 + sf * 0.5 * (x[2] + x[3]);
    p.dr1 = 0.01 * x[4];
    p.dr2 = 0.01 * x[5];
    return spice::diff_pair_output_offset(p);
  };

  // Early model from 80 schematic runs.
  linalg::Matrix xe(80, 2);
  linalg::Vector fe(80);
  for (std::size_t i = 0; i < 80; ++i) {
    auto x = rng.normal_vector(2);
    xe.set_row(i, x);
    fe[i] = simulate_schematic(x);
  }
  auto early = regress::least_squares_fit(basis::BasisSet::linear(2), xe, fe);

  core::MultifingerMap map({2, 2}, 2);
  core::MappedPrior mapped = map.map_linear_model(early);

  linalg::Matrix xl(20, 6);
  linalg::Vector fl(20);
  for (std::size_t i = 0; i < 20; ++i) {
    auto x = rng.normal_vector(6);
    xl.set_row(i, x);
    fl[i] = simulate_late(x);
  }
  core::BmfFitter fitter(mapped);
  fitter.set_data(xl, fl);
  auto fused = fitter.fit();

  linalg::Matrix xt(80, 6);
  linalg::Vector ft(80);
  for (std::size_t i = 0; i < 80; ++i) {
    auto x = rng.normal_vector(6);
    xt.set_row(i, x);
    ft[i] = simulate_late(x);
  }
  basis::PerformanceModel prior_only(mapped.late_basis, mapped.early_coeffs);
  const double e_prior = stats::relative_error(prior_only.predict(xt), ft);
  const double e_fused =
      stats::relative_error(fused.model.predict(xt), ft);
  EXPECT_LT(e_fused, e_prior);
  EXPECT_LT(e_fused, 0.25);
}

TEST(Integration, FastSolverEndToEndMatchesDirectOnTestcase) {
  circuit::Testcase tc = circuit::sram_read_path_testcase(150, 15);
  stats::Rng rng(104);
  circuit::Dataset train = tc.silicon.sample_late(50, rng);
  core::BmfFitter fitter(tc.silicon.late_basis(), tc.early_coeffs,
                         tc.informative);
  fitter.set_data(train.points, train.f);
  auto a = fitter.fit(core::PriorSelection::kAuto);
  const core::PriorOptions& popt = fitter.options().prior;
  const auto prior =
      a.report.chosen_kind == core::PriorKind::kZeroMean
          ? core::CoefficientPrior::zero_mean(tc.early_coeffs, tc.informative,
                                              popt)
          : core::CoefficientPrior::nonzero_mean(tc.early_coeffs,
                                                 tc.informative, popt);
  const linalg::Vector direct = core::map_solve_direct(
      fitter.design(), train.f, prior, a.report.chosen_tau);
  // On this testcase the prior is nearly exact, so CV drives tau to the
  // bottom of the grid (~1e-30, far below the data scale) where the
  // regularized system is extremely ill-conditioned. There the Woodbury
  // solvers and the direct Cholesky agree only to about cond * eps of the
  // coefficient norm (~5e-4 observed for both the per-tau and the
  // workspace fast paths), so the bound is relative to the norm with that
  // conditioning loss budgeted in.
  double scale = linalg::norm_inf(direct) + 1e-300;
  for (std::size_t m = 0; m < a.model.num_terms(); ++m)
    EXPECT_NEAR(a.model.coefficients()[m], direct[m], 1e-2 * scale);
}

TEST(Integration, HistogramOfSamplesIsUnimodalAroundNominal) {
  // Fig. 4/7 sanity at small scale: the MC histogram is centered on the
  // nominal and roughly symmetric.
  circuit::Testcase tc = circuit::sram_read_path_testcase(
      200, 17, circuit::EarlyModelSource::kTruth);
  stats::Rng rng(105);
  circuit::Dataset d = tc.silicon.sample_late(3000, rng);
  std::vector<double> v(d.f.begin(), d.f.end());
  auto s = stats::summarize(v);
  EXPECT_NEAR(s.mean, 250e-12, 3e-12);
  const double median = stats::quantile(v, 0.5);
  EXPECT_NEAR((s.mean - median) / s.stddev, 0.0, 0.1);  // symmetric-ish
}

}  // namespace
}  // namespace bmf
