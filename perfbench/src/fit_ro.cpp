// fit_ro: the paper's fit path on the ring-oscillator power testcase.
//
// Set-up builds the testcase at R = 1500 exactly as the paper does: the
// early-stage model is an OMP fit on 3000 schematic samples
// (EarlyModelSource::kOmpFit). The timed operation is one BMF-PS fit
// (Algorithm 1): draw K late-stage samples, build the design matrix, build
// the CV engine and the zero-mean curve, compute the nonzero-mean curve,
// then BmfFitter::fit(kAuto) picks the prior and tau from those cached
// curves and runs the final MAP solve.
// Each round runs kSmallPerRound fits at K = 100 (the Table IV operating
// point) and one at K = 900 (Table I's top row), each on its own sample
// set. Sample sets come from a fixed pool of kPoolSize; --seed picks which
// sets a run uses and in what order. Every fit is checked against the
// reference table (fit_ro_reference.inc): the chosen prior and tau index
// must match exactly, and the test error to 1e-9 relative.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "basis/basis_set.hpp"
#include "bmf/fusion.hpp"
#include "circuit/testcases.hpp"
#include "linalg/blas.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bmf;

constexpr std::size_t kVars = 1500;
constexpr std::uint64_t kTestcaseSeed = 1;
constexpr std::size_t kPoolSize = 16;
constexpr std::size_t kTestPoints = 300;
constexpr std::size_t kSmallK = 100;
constexpr std::size_t kLargeK = 900;
constexpr std::size_t kSmallPerRound = 8;
constexpr double kErrTolerance = 1e-9;
// A traced fit whose sample, design, engine, nzm and fit spans cover less
// of it than this fails: the per-layer breakdown would miss its cost.
constexpr double kMinSpanCoverage = 0.9;

struct Reference {
  std::size_t set;
  std::size_t k;
  int kind;  // 0 = zero-mean, 1 = nonzero-mean
  std::size_t tau_index;
  double err;
};

#include "fit_ro_reference.inc"

/// Span names of one fit size, so the per-layer numbers stay per K.
struct FitSpans {
  const char* fit;
  const char* sample;
  const char* design;
  const char* engine;
  const char* nzm;
  const char* fit_at;
};
constexpr FitSpans kSmallSpans{"fit.k100", "circuit.sample_k100",
                               "basis.design_matrix_k100",
                               "bmf.cv_engine_k100", "bmf.cv_nzm_curve_k100",
                               "bmf.fit_at_k100"};
constexpr FitSpans kLargeSpans{"fit.k900", "circuit.sample_k900",
                               "basis.design_matrix_k900",
                               "bmf.cv_engine_k900", "bmf.cv_nzm_curve_k900",
                               "bmf.fit_at_k900"};

std::uint64_t set_seed(std::size_t set) { return 0x5EED0000ull + set; }

struct Fit {
  double seconds = 0.0;
  int kind = 0;
  std::size_t tau_index = 0;
  double err = 0.0;
  double coverage = 0.0;  // share of the fit span its child spans cover
  std::size_t grid_points = 0;
};

/// One BMF-PS fit of `k` samples from sample set `set`, timed; the test
/// error is measured outside the timed region.
Fit fit_once(const circuit::Testcase& tc, std::size_t set, std::size_t k,
             SpanLog& log, std::uint64_t request) {
  const FitSpans& names = k == kSmallK ? kSmallSpans : kLargeSpans;
  const basis::BasisSet& late_basis = tc.silicon.late_basis();
  core::FusionOptions options;
  options.cv.seed = set_seed(set);

  Fit fit;
  linalg::Vector coeffs;
  std::int32_t fit_span = -1;
  const std::int64_t t0 = now_ns();
  {
    Scope whole(log, names.fit, request);
    fit_span = whole.index();
    circuit::Dataset train;
    {
      Scope s(log, names.sample);
      stats::Rng rng(set_seed(set) * 31 + k);
      train = tc.silicon.sample_late(k, rng);
    }
    linalg::Matrix g;
    {
      Scope s(log, names.design);
      g = basis::design_matrix(late_basis, train.points);
    }
    std::optional<core::BmfFitter> fitter;
    {
      Scope s(log, names.engine);
      fitter.emplace(late_basis, tc.early_coeffs, tc.informative, options);
      fitter->set_design(std::move(g), std::move(train.f));
      fitter->zero_mean_curve();
    }
    {
      Scope s(log, names.nzm);
      fitter->nonzero_mean_curve();
    }
    // Algorithm 1 proper: fit() picks the prior and tau from the cached
    // curves and runs the final MAP solve.
    core::FusionResult result;
    {
      Scope s(log, names.fit_at);
      result = fitter->fit(core::PriorSelection::kAuto);
    }
    const core::FusionReport& report = result.report;
    const bool zm = report.chosen_kind == core::PriorKind::kZeroMean;
    const std::vector<double>& taus =
        zm ? report.zm_curve->taus : report.nzm_curve->taus;
    fit.kind = zm ? 0 : 1;
    fit.tau_index = static_cast<std::size_t>(
        std::find(taus.begin(), taus.end(), report.chosen_tau) - taus.begin());
    fit.grid_points = options.cv.folds * (report.zm_curve->taus.size() +
                                          report.nzm_curve->taus.size());
    coeffs = result.model.coefficients();
    fitter.reset();
  }
  fit.seconds = seconds_since(t0);
  if (fit_span >= 0) fit.coverage = log.child_coverage(fit_span);

  stats::Rng test_rng(set_seed(set) ^ 0x7E57ull);
  const circuit::Dataset test = tc.silicon.sample_late(kTestPoints, test_rng);
  const linalg::Matrix g_test = basis::design_matrix(late_basis, test.points);
  fit.err = stats::relative_error(linalg::gemv(g_test, coeffs), test.f);
  return fit;
}

const Reference* find_reference(std::size_t set, std::size_t k) {
  for (const Reference& r : kReference)
    if (r.set == set && r.k == k) return &r;
  return nullptr;
}

void check_fit(const Fit& fit, std::size_t set, std::size_t k, bool traced,
               RunResult& result) {
  result.attempt();
  const Reference* ref = find_reference(set, k);
  const std::string where =
      "fit_ro set " + std::to_string(set) + " K=" + std::to_string(k);
  if (ref == nullptr) {
    result.fail(where + ": no reference entry");
  } else if (fit.kind != ref->kind || fit.tau_index != ref->tau_index) {
    result.fail(where + ": chose prior " + std::to_string(fit.kind) +
                " tau index " + std::to_string(fit.tau_index) +
                ", reference " + std::to_string(ref->kind) + "/" +
                std::to_string(ref->tau_index));
  } else if (!(std::abs(fit.err - ref->err) <= kErrTolerance * ref->err)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), ": error %.17g, reference %.17g",
                  fit.err, ref->err);
    result.fail(where + buf);
  } else if (traced && fit.coverage < kMinSpanCoverage) {
    result.fail(where + ": child spans cover only " +
                std::to_string(100.0 * fit.coverage) + " % of the fit");
  }
}

circuit::Testcase build_testcase() {
  return circuit::ring_oscillator_testcase(circuit::RoMetric::kPower, kVars,
                                           kTestcaseSeed,
                                           circuit::EarlyModelSource::kOmpFit);
}

}  // namespace

RunResult run_fit_ro(const RunConfig& cfg) {
  RunResult result;
  SpanLog log(cfg.trace);

  const std::int64_t t0 = now_ns();
  std::optional<circuit::Testcase> tc;
  {
    Scope s(log, "circuit.testcase", 1);
    tc.emplace(build_testcase());
  }
  result.set("setup_s", seconds_since(t0));

  // A traced run alternates traced and untraced K = 100 fits within each
  // round, and traced and untraced rounds for the K = 900 fit, so the
  // tracing overhead is measured inside one process on interleaved fits.
  std::vector<double> small_s, large_s, small_traced_s, small_untraced_s;
  std::vector<double> errs;
  double min_coverage = 1.0;
  std::size_t grid_points = 0;
  std::uint64_t request = 1;
  const std::int64_t start = now_ns();
  const auto run_fit = [&](std::size_t set, std::size_t k, bool traced,
                           bool first_round) {
    log.set_enabled(traced);
    const Fit fit = fit_once(*tc, set, k, log, ++request);
    check_fit(fit, set, k, traced, result);
    if (first_round) errs.push_back(fit.err);
    if (traced) min_coverage = std::min(min_coverage, fit.coverage);
    grid_points = fit.grid_points;
    return fit.seconds;
  };
  for (std::size_t round = 0; seconds_since(start) < cfg.seconds; ++round) {
    for (std::size_t j = 0; j < kSmallPerRound; ++j) {
      const std::size_t set =
          (cfg.seed + round * kSmallPerRound + j) % kPoolSize;
      const bool traced = cfg.trace && j % 2 == 0;
      const double seconds = run_fit(set, kSmallK, traced, round == 0);
      small_s.push_back(seconds);
      if (cfg.trace)
        (traced ? small_traced_s : small_untraced_s).push_back(seconds);
    }
    const std::size_t set = (cfg.seed * 7 + round) % kPoolSize;
    large_s.push_back(
        run_fit(set, kLargeK, cfg.trace && round % 2 == 0, round == 0));
  }
  log.set_enabled(cfg.trace);

  const double large_p50 = median(large_s);
  const double small_p50 = median(small_s);
  double fit_s = 0.0;
  for (double s : small_s) fit_s += s;
  for (double s : large_s) fit_s += s;
  result.set("op_p50_ms", large_p50 * 1e3);
  result.set("points_per_s",
             static_cast<double>(small_s.size() * kSmallK +
                                 large_s.size() * kLargeK) /
                 fit_s);
  result.set("peak_rss_mb", peak_rss_mib());

  result.set("fit.k100_s", small_p50);
  result.set("fit.k900_s", large_p50);
  double err_sum = 0.0;
  for (double e : errs) err_sum += e;
  result.set("fit.err_pct", 100.0 * err_sum / static_cast<double>(errs.size()));
  result.set("bmf.cv_grid_points", static_cast<double>(grid_points));
  if (cfg.trace) {
    const auto layers = summarize({&log});
    for (const auto& [name, times] : layers)
      if (name != "fit.k100" && name != "fit.k900")
        result.set(name + "_s", median(times.durations_s));
    result.set("fit.span_coverage_min_pct", 100.0 * min_coverage);
    const double untraced = median(small_untraced_s);
    if (untraced > 0.0)
      result.set("trace.overhead_pct",
                 100.0 * (median(small_traced_s) - untraced) / untraced);
    finish_trace(cfg, {&log}, result);
  }
  return result;
}

int emit_fit_ro_reference() {
  const circuit::Testcase tc = build_testcase();
  SpanLog log(false);
  std::printf(
      "// Reference BMF-PS outcomes of fit_ro: {set, K, prior (0 = ZM,\n"
      "// 1 = NZM), tau index, relative test error}. Regenerate with\n"
      "// `bmf_perfbench --emit-reference` only when a change is meant to\n"
      "// alter what the fit selects.\n"
      "constexpr Reference kReference[] = {\n");
  for (std::size_t set = 0; set < kPoolSize; ++set)
    for (const std::size_t k : {kSmallK, kLargeK}) {
      const Fit fit = fit_once(tc, set, k, log, 0);
      std::printf("    {%zu, %zu, %d, %zu, %.17g},\n", set, k, fit.kind,
                  fit.tau_index, fit.err);
      std::fflush(stdout);
    }
  std::printf("};\n");
  return 0;
}

}  // namespace perfbench
