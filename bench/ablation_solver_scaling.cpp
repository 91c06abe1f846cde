// Ablation: fast-solver scaling (Section IV-C), via google-benchmark.
// Times the conventional dense Cholesky MAP solve (O(M^3)) against the
// Sherman-Morrison-Woodbury low-rank solve (O(K^2 M + K^3)) at fixed
// K = 100 and growing basis count M — the regime of the paper's reported
// "up to 600x" solver speedup (Fig. 5's solver gap) — and, on top of that,
// the amortized MapSolverWorkspace path that pays the tau-independent
// kernel once and then solves each hyper-parameter in O(K^2 + K M).
#include <benchmark/benchmark.h>

#include "bmf/cross_validation.hpp"
#include "bmf/map_solver.hpp"
#include "bmf/solver_workspace.hpp"
#include "stats/rng.hpp"

namespace {

using namespace bmf;

struct Problem {
  linalg::Matrix g;
  linalg::Vector f;
  linalg::Vector early;
  core::CoefficientPrior prior;
};

Problem make_problem(std::size_t k, std::size_t m) {
  stats::Rng rng(m * 7 + k);
  Problem p{linalg::Matrix(k, m), linalg::Vector(k), linalg::Vector(m),
            core::CoefficientPrior::zero_mean(linalg::Vector(m, 1.0))};
  for (double& e : p.early) e = rng.normal();
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      p.g(i, j) = rng.normal();
      v += p.early[j] * p.g(i, j);
    }
    p.f[i] = v + rng.normal(0.0, 0.1);
  }
  p.prior = core::CoefficientPrior::zero_mean(p.early);
  return p;
}

void BM_MapSolveDirect(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Problem p = make_problem(100, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::map_solve_direct(p.g, p.f, p.prior, 1.0));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

void BM_MapSolveFast(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Problem p = make_problem(100, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::map_solve_fast(p.g, p.f, p.prior, 1.0));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

BENCHMARK(BM_MapSolveDirect)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_MapSolveFast)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

// --- Amortized workspace path ----------------------------------------------
//
// The pipeline solves the same (G, f, q) at dozens of taus (CV refit,
// BMF-PS, sequential stages). The sweep benches model BMF-PS prior
// selection: both the zero-mean and nonzero-mean prior swept over the
// 21-point CV grid (the CvOptions default). BM_MapTauSweepFresh is the old
// cost model — one full Woodbury build per (prior, tau) query;
// BM_MapTauSweepWorkspace pays the tau-independent kernel once (ZM and NZM
// share the precision scale q) and reuses it across all 42 queries.

constexpr std::size_t kSweepTaus = 21;

void BM_MapWorkspaceBuild(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Problem p = make_problem(100, m);
  for (auto _ : state) {
    core::MapSolverWorkspace ws(p.g, p.f, p.prior);
    benchmark::DoNotOptimize(ws.solve(1.0));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

void BM_MapWorkspaceSolve(benchmark::State& state) {
  // Marginal per-tau cost once the workspace exists: O(K^2 + K M).
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Problem p = make_problem(100, m);
  core::MapSolverWorkspace ws(p.g, p.f, p.prior);
  const linalg::Vector taus = core::log_grid(1e-2, 1e2, kSweepTaus);
  std::size_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ws.solve(taus[t]));
    t = (t + 1) % taus.size();
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

void BM_MapTauSweepFresh(benchmark::State& state) {
  // BMF-PS sweep, old cost model: both priors over the 21-point grid, one
  // full fast solve per (prior, tau) query.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Problem p = make_problem(100, m);
  const auto nzm = core::CoefficientPrior::nonzero_mean(p.early);
  const linalg::Vector taus = core::log_grid(1e-2, 1e2, kSweepTaus);
  for (auto _ : state) {
    for (double tau : taus) {
      benchmark::DoNotOptimize(core::map_solve_fast(p.g, p.f, p.prior, tau));
      benchmark::DoNotOptimize(core::map_solve_fast(p.g, p.f, nzm, tau));
    }
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

void BM_MapTauSweepWorkspace(benchmark::State& state) {
  // Same BMF-PS sweep through the amortized path: one workspace build (ZM
  // and NZM share q), one NZM mean projection, 2 x 21 cheap solves.
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Problem p = make_problem(100, m);
  const auto nzm = core::CoefficientPrior::nonzero_mean(p.early);
  const linalg::Vector taus = core::log_grid(1e-2, 1e2, kSweepTaus);
  for (auto _ : state) {
    core::MapSolverWorkspace ws(p.g, p.f, p.prior);
    const auto nzm_mean = ws.project_mean(nzm.mean());
    for (double tau : taus) {
      benchmark::DoNotOptimize(ws.solve(tau));
      benchmark::DoNotOptimize(ws.solve(tau, nzm_mean));
    }
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(m));
}

BENCHMARK(BM_MapWorkspaceBuild)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_MapWorkspaceSolve)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_MapTauSweepFresh)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();
BENCHMARK(BM_MapTauSweepWorkspace)
    ->Arg(250)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity();

}  // namespace

BENCHMARK_MAIN();
