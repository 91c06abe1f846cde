// Shared experiment harness for the paper-reproduction benches.
//
// Implements the Section V protocol: for each repeated run, draw a fresh
// post-layout training set (900 samples max) and a 300-sample testing set,
// then for every training-set size K fit the four methods — OMP, BMF-ZM,
// BMF-NZM, BMF-PS — and record the relative modeling error (Eq. 59) on the
// testing set. Errors are averaged over repeats, exactly like the paper's
// Tables I-III and V.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/testcases.hpp"
#include "io/args.hpp"

namespace bmf::bench {

/// Names the four compared methods, in the paper's column order.
enum class Method { kOmp, kBmfZm, kBmfNzm, kBmfPs };
inline constexpr std::size_t kNumMethods = 4;
const char* method_name(Method m);

struct SweepConfig {
  /// Training-set sizes (paper: 100..900 step 100).
  std::vector<std::size_t> sample_sizes = {100, 200, 300, 400, 500,
                                           600, 700, 800, 900};
  /// Independent repeats with fresh training/testing sets (paper: 50).
  std::size_t repeats = 5;
  /// Testing-set size (paper: 300).
  std::size_t test_size = 300;
  std::uint64_t seed = 2013;
};

struct SweepResult {
  std::vector<std::size_t> sample_sizes;
  /// errors[method][k_index]: mean relative error over repeats.
  double errors[kNumMethods][16] = {};
  /// Mean wall-clock *solve-only* seconds per (method, K) — Monte Carlo
  /// sampling and design-matrix assembly are reported separately below so
  /// that per-phase speedups stay attributable.
  double fit_seconds[kNumMethods][16] = {};
  /// BMF-PS's fit_seconds split per K: cross-validation (CV engine build +
  /// both prior curves) and the final MAP solves of both priors.
  double ps_cv_seconds[16] = {};
  double ps_solve_seconds[16] = {};
  /// Mean per-repeat wall-clock of the shared phases: drawing the training
  /// + testing Monte Carlo sets, and assembling their design matrices.
  double sample_seconds = 0.0;
  double design_seconds = 0.0;
};

/// Run the full error sweep on one testcase.
SweepResult run_error_sweep(const circuit::Testcase& testcase,
                            const SweepConfig& config);

/// Print a paper-style error table (relative error in percent).
std::string format_error_table(const SweepResult& result);

/// Print the fitting-cost series (seconds vs K) for the given methods.
std::string format_cost_table(const SweepResult& result,
                              const std::vector<Method>& methods);

/// Per-phase wall-clock summary of a sweep result: one line for sampling
/// vs design-matrix assembly, one for BMF-PS's CV vs final-solve split
/// per K.
std::string format_phase_timing(const SweepResult& result);

/// Single-point comparison used by Tables IV and VI: OMP at k_omp samples
/// vs BMF-PS (fast solver) at k_bmf samples.
struct CostComparison {
  double omp_error = 0.0, bmf_error = 0.0;
  double omp_fit_seconds = 0.0, bmf_fit_seconds = 0.0;
  double omp_sim_hours = 0.0, bmf_sim_hours = 0.0;

  double omp_total_hours() const {
    return omp_sim_hours + omp_fit_seconds / 3600.0;
  }
  double bmf_total_hours() const {
    return bmf_sim_hours + bmf_fit_seconds / 3600.0;
  }
  double speedup() const { return omp_total_hours() / bmf_total_hours(); }
};

CostComparison run_cost_comparison(const circuit::Testcase& testcase,
                                   std::size_t k_omp, std::size_t k_bmf,
                                   std::size_t repeats, std::uint64_t seed);

/// Standard bench CLI: --vars N --repeats N --seed S --full --test N.
/// `default_vars`/`full_vars` pick the scale.
struct BenchScale {
  std::size_t vars;
  std::size_t repeats;
  std::uint64_t seed;
};
BenchScale parse_scale(const io::Args& args, std::size_t default_vars,
                       std::size_t full_vars, std::size_t default_repeats);

/// Monotonic wall-clock seconds.
double now_seconds();

}  // namespace bmf::bench
