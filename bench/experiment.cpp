#include "experiment.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "bmf/fusion.hpp"
#include "io/table.hpp"
#include "linalg/blas.hpp"
#include "regress/omp.hpp"
#include "stats/descriptive.hpp"

namespace bmf::bench {

const char* method_name(Method m) {
  switch (m) {
    case Method::kOmp:
      return "OMP";
    case Method::kBmfZm:
      return "BMF-ZM";
    case Method::kBmfNzm:
      return "BMF-NZM";
    case Method::kBmfPs:
      return "BMF-PS";
  }
  return "?";
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SweepResult run_error_sweep(const circuit::Testcase& tc,
                            const SweepConfig& config) {
  if (config.sample_sizes.size() > 16)
    throw std::invalid_argument("run_error_sweep: at most 16 sample sizes");
  SweepResult result;
  result.sample_sizes = config.sample_sizes;

  const std::size_t k_max = *std::max_element(config.sample_sizes.begin(),
                                              config.sample_sizes.end());
  stats::Rng rng(config.seed);

  for (std::size_t rep = 0; rep < config.repeats; ++rep) {
    stats::Rng run_rng = rng.split();
    // Fresh training and testing sets per run (Section V protocol). The
    // sampling and design-matrix phases are timed separately from the
    // solves so parallel speedups stay attributable per phase.
    double t0 = now_seconds();
    circuit::Dataset train = tc.silicon.sample_late(k_max, run_rng);
    circuit::Dataset test = tc.silicon.sample_late(config.test_size, run_rng);
    result.sample_seconds += now_seconds() - t0;
    t0 = now_seconds();
    const linalg::Matrix g_all =
        basis::design_matrix(tc.silicon.late_basis(), train.points);
    const linalg::Matrix g_test =
        basis::design_matrix(tc.silicon.late_basis(), test.points);
    result.design_seconds += now_seconds() - t0;

    for (std::size_t ki = 0; ki < config.sample_sizes.size(); ++ki) {
      const std::size_t k = config.sample_sizes[ki];
      linalg::Matrix g_k = g_all.block(0, 0, k, g_all.cols());
      linalg::Vector f_k(train.f.begin(), train.f.begin() + k);

      auto record = [&](Method m, double seconds,
                        const linalg::Vector& coeffs) {
        const linalg::Vector pred = linalg::gemv(g_test, coeffs);
        result.errors[static_cast<std::size_t>(m)][ki] +=
            stats::relative_error(pred, test.f);
        result.fit_seconds[static_cast<std::size_t>(m)][ki] += seconds;
      };

      {  // OMP baseline.
        const double t0 = now_seconds();
        regress::OmpOptions opt;
        opt.seed = config.seed + rep;
        regress::OmpResult omp = regress::omp_solve(g_k, f_k, opt);
        record(Method::kOmp, now_seconds() - t0, omp.coefficients);
      }
      {  // BMF family: one fitter, shared CV engine across ZM/NZM/PS.
        core::FusionOptions opt;
        opt.cv.seed = config.seed + 31 * rep;
        core::BmfFitter fitter(tc.silicon.late_basis(), tc.early_coeffs,
                               tc.informative, opt);
        // Timing breakdown: the CV engine build dominates and is shared, so
        // each reported column charges it once:
        //   BMF-ZM  = engine + ZM curve + ZM solve
        //   BMF-NZM = engine + ZM/NZM curves (curve eval is negligible vs
        //             engine) + NZM solve
        //   BMF-PS  = engine + both curves + both solves
        double t0 = now_seconds();
        fitter.set_design(g_k, f_k);
        const core::CvCurve& zm = fitter.zero_mean_curve();
        const double t_engine_zm_curve = now_seconds() - t0;

        t0 = now_seconds();
        auto zm_model =
            fitter.fit_at(core::PriorKind::kZeroMean, zm.best_tau());
        const double t_zm_solve = now_seconds() - t0;
        record(Method::kBmfZm, t_engine_zm_curve + t_zm_solve,
               zm_model.coefficients());

        t0 = now_seconds();
        const core::CvCurve& nzm = fitter.nonzero_mean_curve();
        const double t_nzm_curve = now_seconds() - t0;
        t0 = now_seconds();
        auto nzm_model =
            fitter.fit_at(core::PriorKind::kNonzeroMean, nzm.best_tau());
        const double t_nzm_solve = now_seconds() - t0;
        record(Method::kBmfNzm, t_engine_zm_curve + t_nzm_curve + t_nzm_solve,
               nzm_model.coefficients());

        // BMF-PS picks whichever model the CV error prefers.
        const bool zm_wins = zm.best_error() <= nzm.best_error();
        const double t_cv = t_engine_zm_curve + t_nzm_curve;
        const double t_solve = t_zm_solve + t_nzm_solve;
        record(Method::kBmfPs, t_cv + t_solve,
               zm_wins ? zm_model.coefficients() : nzm_model.coefficients());
        result.ps_cv_seconds[ki] += t_cv;
        result.ps_solve_seconds[ki] += t_solve;
      }
    }
  }

  const double inv = 1.0 / static_cast<double>(config.repeats);
  for (std::size_t m = 0; m < kNumMethods; ++m)
    for (std::size_t ki = 0; ki < config.sample_sizes.size(); ++ki) {
      result.errors[m][ki] *= inv;
      result.fit_seconds[m][ki] *= inv;
    }
  for (std::size_t ki = 0; ki < config.sample_sizes.size(); ++ki) {
    result.ps_cv_seconds[ki] *= inv;
    result.ps_solve_seconds[ki] *= inv;
  }
  result.sample_seconds *= inv;
  result.design_seconds *= inv;
  return result;
}

std::string format_error_table(const SweepResult& result) {
  io::Table table(
      {"Number of samples", "OMP", "BMF-ZM", "BMF-NZM", "BMF-PS"});
  for (std::size_t ki = 0; ki < result.sample_sizes.size(); ++ki) {
    table.add_row({std::to_string(result.sample_sizes[ki]),
                   io::Table::num(100.0 * result.errors[0][ki]),
                   io::Table::num(100.0 * result.errors[1][ki]),
                   io::Table::num(100.0 * result.errors[2][ki]),
                   io::Table::num(100.0 * result.errors[3][ki])});
  }
  return table.to_string();
}

std::string format_cost_table(const SweepResult& result,
                              const std::vector<Method>& methods) {
  std::vector<std::string> headers = {"Number of samples"};
  for (Method m : methods)
    headers.push_back(std::string(method_name(m)) + " (s)");
  io::Table table(headers);
  for (std::size_t ki = 0; ki < result.sample_sizes.size(); ++ki) {
    std::vector<std::string> row = {
        std::to_string(result.sample_sizes[ki])};
    for (Method m : methods)
      row.push_back(io::Table::num(
          result.fit_seconds[static_cast<std::size_t>(m)][ki], 4));
    table.add_row(std::move(row));
  }
  return table.to_string();
}

std::string format_phase_timing(const SweepResult& result) {
  std::ostringstream os;
  os << "per-repeat phase wall-clock: sampling=" << io::Table::num(
            result.sample_seconds, 4)
     << "s, design-matrix=" << io::Table::num(result.design_seconds, 4)
     << "s (fit columns above are solve-only)\n"
     << "BMF-PS solve-only split, cv + final solve (s):";
  for (std::size_t ki = 0; ki < result.sample_sizes.size(); ++ki)
    os << (ki == 0 ? " " : ", ") << "K=" << result.sample_sizes[ki] << " "
       << io::Table::num(result.ps_cv_seconds[ki], 4) << " + "
       << io::Table::num(result.ps_solve_seconds[ki], 4);
  return os.str();
}

CostComparison run_cost_comparison(const circuit::Testcase& tc,
                                   std::size_t k_omp, std::size_t k_bmf,
                                   std::size_t repeats, std::uint64_t seed) {
  SweepConfig config;
  config.sample_sizes = {k_bmf, k_omp};
  config.repeats = repeats;
  config.seed = seed;
  SweepResult sweep = run_error_sweep(tc, config);

  CostComparison cmp;
  // Index 0 is k_bmf, index 1 is k_omp (sample_sizes order above).
  cmp.omp_error = sweep.errors[static_cast<std::size_t>(Method::kOmp)][1];
  cmp.bmf_error = sweep.errors[static_cast<std::size_t>(Method::kBmfPs)][0];
  cmp.omp_fit_seconds =
      sweep.fit_seconds[static_cast<std::size_t>(Method::kOmp)][1];
  cmp.bmf_fit_seconds =
      sweep.fit_seconds[static_cast<std::size_t>(Method::kBmfPs)][0];
  cmp.omp_sim_hours = tc.simulation_hours(k_omp);
  cmp.bmf_sim_hours = tc.simulation_hours(k_bmf);
  return cmp;
}

BenchScale parse_scale(const io::Args& args, std::size_t default_vars,
                       std::size_t full_vars, std::size_t default_repeats) {
  BenchScale scale;
  scale.vars = args.flag("full")
                   ? full_vars
                   : static_cast<std::size_t>(
                         args.get_int("vars", static_cast<long>(default_vars)));
  scale.repeats = static_cast<std::size_t>(args.get_int(
      "repeats", static_cast<long>(args.flag("full") ? 50 : default_repeats)));
  scale.seed = args.get_seed("seed", 2013);
  return scale;
}

}  // namespace bmf::bench
