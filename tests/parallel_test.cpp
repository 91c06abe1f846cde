#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "basis/basis_set.hpp"
#include "bmf/cross_validation.hpp"
#include "bmf/prior.hpp"
#include "bmf/solver_workspace.hpp"
#include "circuit/virtual_silicon.hpp"
#include "linalg/blas.hpp"
#include "regress/omp.hpp"
#include "stats/rng.hpp"

namespace bmf {
namespace {

/// Sets the pool size for one test and restores the default afterwards.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { parallel::set_num_threads(n); }
  ~ScopedThreads() { parallel::set_num_threads(0); }
};

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedThreads threads(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel::parallel_for(0, kN, 7, [&](std::size_t i0, std::size_t i1) {
    ASSERT_LT(i0, i1);
    ASSERT_LE(i1, kN);
    for (std::size_t i = i0; i < i1; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ScopedThreads threads(4);
  bool called = false;
  parallel::parallel_for(5, 5, 1,
                         [&](std::size_t, std::size_t) { called = true; });
  parallel::parallel_for(7, 3, 1,
                         [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, RespectsExplicitGrain) {
  ScopedThreads threads(3);
  // 10 indices at grain 4 -> chunks [0,4), [4,8), [8,10).
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel::parallel_for(0, 10, 4, [&](std::size_t i0, std::size_t i1) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(i0, i1);
  });
  ASSERT_EQ(chunks.size(), 3u);
  for (const auto& [i0, i1] : chunks) {
    EXPECT_EQ(i0 % 4, 0u);
    EXPECT_EQ(i1, std::min<std::size_t>(i0 + 4, 10));
  }
}

TEST(ParallelFor, SingleThreadRunsOnCallerThread) {
  ScopedThreads threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel::parallel_for(0, 100, 10, [&](std::size_t, std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;  // safe: serial fallback
  });
  EXPECT_EQ(calls, 10u);  // same chunk grid as the threaded path
}

TEST(ParallelFor, PropagatesExceptionsAndStaysUsable) {
  ScopedThreads threads(4);
  EXPECT_THROW(
      parallel::parallel_for(0, 64, 1,
                             [&](std::size_t i0, std::size_t) {
                               if (i0 == 13)
                                 throw std::runtime_error("chunk 13");
                             }),
      std::runtime_error);
  // The pool must survive a throwing job.
  std::atomic<std::size_t> count{0};
  parallel::parallel_for(0, 64, 1, [&](std::size_t i0, std::size_t i1) {
    count += i1 - i0;
  });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ParallelFor, NestedCallsRunSerially) {
  ScopedThreads threads(4);
  EXPECT_FALSE(parallel::in_parallel_region());
  std::atomic<std::size_t> inner_total{0};
  parallel::parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    EXPECT_TRUE(parallel::in_parallel_region());
    // A nested call must not deadlock; it degrades to serial execution.
    std::size_t local = 0;
    parallel::parallel_for(0, 16, 4, [&](std::size_t i0, std::size_t i1) {
      EXPECT_TRUE(parallel::in_parallel_region());
      local += i1 - i0;
    });
    EXPECT_EQ(local, 16u);
    inner_total += local;
  });
  EXPECT_FALSE(parallel::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 8u * 16u);
}

TEST(ParallelReduce, SumsInChunkOrder) {
  ScopedThreads threads(4);
  // Harmonic-like series whose FP sum is order-sensitive: the parallel
  // result must equal the serial chunked reduction bit for bit.
  constexpr std::size_t kN = 10000;
  auto chunk_sum = [](std::size_t i0, std::size_t i1) {
    double s = 0.0;
    for (std::size_t i = i0; i < i1; ++i)
      s += 1.0 / static_cast<double>(i + 1);
    return s;
  };
  const double par = parallel::parallel_reduce(
      0, kN, 128, 0.0, chunk_sum,
      [](double a, double b) { return a + b; });

  double ref = 0.0;
  for (std::size_t i0 = 0; i0 < kN; i0 += 128)
    ref += chunk_sum(i0, std::min<std::size_t>(i0 + 128, kN));
  EXPECT_EQ(par, ref);
}

TEST(ThreadPool, ResizeInsideRegionThrows) {
  ScopedThreads threads(2);
  parallel::parallel_for(0, 4, 1, [&](std::size_t i0, std::size_t) {
    if (i0 == 0) {
      EXPECT_THROW(parallel::set_num_threads(3), std::logic_error);
    }
  });
}

// ---- Bit-identity of the parallelized numerical kernels --------------------

linalg::Matrix random_matrix(std::size_t r, std::size_t c, stats::Rng& rng) {
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.normal();
  return m;
}

void expect_bitwise_equal(const linalg::Matrix& a, const linalg::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      ASSERT_EQ(a(i, j), b(i, j)) << "(" << i << ", " << j << ")";
}

TEST(BitIdentity, GramAndGemmMatchSerial) {
  stats::Rng rng(314);
  const linalg::Matrix g = random_matrix(120, 90, rng);
  const linalg::Matrix b = random_matrix(90, 40, rng);
  linalg::Vector d(90);
  for (double& v : d) v = 0.5 + rng.uniform();

  linalg::Matrix gram1, gemm1, tn1, nt1, outer1;
  {
    ScopedThreads threads(1);
    gram1 = linalg::gram(g);
    gemm1 = linalg::gemm(g, b);
    tn1 = linalg::gemm_tn(g, g);
    nt1 = linalg::gemm_nt(b, b);
    outer1 = linalg::outer_gram_weighted(g, d);
  }
  ScopedThreads threads(4);
  expect_bitwise_equal(linalg::gram(g), gram1);
  expect_bitwise_equal(linalg::gemm(g, b), gemm1);
  expect_bitwise_equal(linalg::gemm_tn(g, g), tn1);
  expect_bitwise_equal(linalg::gemm_nt(b, b), nt1);
  expect_bitwise_equal(linalg::outer_gram_weighted(g, d), outer1);
}

TEST(BitIdentity, GemvFamilyMatchesSerial) {
  // 300x300 = 9e4 flops per product, above the parallel flop cutoff
  // (2^16), so the 4-thread run actually splits the row/column ranges.
  stats::Rng rng(1618);
  const linalg::Matrix g = random_matrix(300, 300, rng);
  linalg::Vector x(300);
  for (double& v : x) v = rng.normal();

  linalg::Vector y1, yt1;
  {
    ScopedThreads threads(1);
    y1 = linalg::gemv(g, x);
    yt1 = linalg::gemv_t(g, x);
  }
  ScopedThreads threads(4);
  EXPECT_EQ(linalg::gemv(g, x), y1);
  EXPECT_EQ(linalg::gemv_t(g, x), yt1);
}

TEST(BitIdentity, SolverWorkspaceMatchesSerial) {
  // End-to-end over the amortized MAP path: workspace construction uses
  // the threaded outer_gram/gemm kernels, so the solutions must still be
  // thread-count invariant.
  stats::Rng rng(4242);
  const std::size_t k = 60, m = 200;
  const linalg::Matrix g = random_matrix(k, m, rng);
  linalg::Vector early(m), f(k);
  for (double& e : early) e = rng.normal();
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) v += early[j] * g(i, j);
    f[i] = v + rng.normal(0.0, 0.1);
  }
  const auto prior = core::CoefficientPrior::nonzero_mean(early);

  linalg::Vector lo, hi;
  {
    ScopedThreads threads(1);
    core::MapSolverWorkspace ws(g, f, prior);
    lo = ws.solve(0.5);
    hi = ws.solve(50.0);
  }
  ScopedThreads threads(4);
  core::MapSolverWorkspace ws(g, f, prior);
  EXPECT_EQ(ws.solve(0.5), lo);
  EXPECT_EQ(ws.solve(50.0), hi);
}

TEST(BitIdentity, DesignMatrixMatchesSerial) {
  stats::Rng rng(2718);
  const basis::BasisSet basis = basis::BasisSet::total_degree(6, 3);
  const linalg::Matrix points = random_matrix(257, 6, rng);

  linalg::Matrix serial;
  {
    ScopedThreads threads(1);
    serial = basis::design_matrix(basis, points);
  }
  ScopedThreads threads(4);
  expect_bitwise_equal(basis::design_matrix(basis, points), serial);
}

TEST(BitIdentity, SampledDatasetsThreadCountInvariant) {
  circuit::TestcaseSpec spec;
  spec.num_vars = 40;
  spec.num_parasitic = 4;
  spec.seed = 11;
  circuit::VirtualSilicon vs(spec);
  // 3 full chunks + a partial one (kSampleChunk = 64).
  const std::size_t n = 3 * circuit::VirtualSilicon::kSampleChunk + 17;

  circuit::Dataset serial;
  {
    ScopedThreads threads(1);
    stats::Rng rng(99);
    serial = vs.sample_late(n, rng);
  }
  ScopedThreads threads(4);
  stats::Rng rng(99);
  const circuit::Dataset par = vs.sample_late(n, rng);
  expect_bitwise_equal(par.points, serial.points);
  ASSERT_EQ(par.f.size(), serial.f.size());
  for (std::size_t i = 0; i < par.f.size(); ++i)
    ASSERT_EQ(par.f[i], serial.f[i]) << i;
}

TEST(BitIdentity, CrossValidationCurveMatchesSerial) {
  stats::Rng rng(555);
  const std::size_t k = 40, m = 60;
  const linalg::Matrix g = random_matrix(k, m, rng);
  linalg::Vector early(m), f(k);
  for (double& e : early) e = rng.normal();
  for (std::size_t i = 0; i < k; ++i) {
    double v = 0.0;
    for (std::size_t j = 0; j < m; ++j) v += early[j] * g(i, j);
    f[i] = v + rng.normal(0.0, 0.1);
  }
  const auto prior = core::CoefficientPrior::nonzero_mean(early);
  core::CvOptions opt;
  opt.folds = 5;
  opt.grid_size = 9;
  opt.seed = 77;

  core::CvCurve serial;
  {
    ScopedThreads threads(1);
    core::CvEngine engine(g, f, core::map_kernel(g, prior), opt);
    serial = engine.evaluate(prior.mean());
  }
  ScopedThreads threads(4);
  core::CvEngine engine(g, f, core::map_kernel(g, prior), opt);
  const core::CvCurve par = engine.evaluate(prior.mean());
  ASSERT_EQ(par.errors.size(), serial.errors.size());
  for (std::size_t i = 0; i < par.errors.size(); ++i) {
    ASSERT_EQ(par.taus[i], serial.taus[i]) << i;
    ASSERT_EQ(par.errors[i], serial.errors[i]) << i;
  }
}

TEST(BitIdentity, OmpSolveMatchesSerial) {
  // Wide enough (m = 300) that the correlation scan splits into several
  // column chunks; both the validation path and the final path run.
  stats::Rng rng(1789);
  const std::size_t k = 150, m = 300;
  const linalg::Matrix g = random_matrix(k, m, rng);
  linalg::Vector f(k);
  for (std::size_t i = 0; i < k; ++i)
    f[i] = 2.0 * g(i, 3) - g(i, 101) + 0.5 * g(i, 250) + rng.normal(0.0, 0.1);

  regress::OmpResult serial;
  {
    ScopedThreads threads(1);
    serial = regress::omp_solve(g, f);
  }
  ASSERT_FALSE(serial.validation_errors.empty());
  for (std::size_t n : {2u, 4u}) {
    ScopedThreads threads(n);
    const regress::OmpResult par = regress::omp_solve(g, f);
    EXPECT_EQ(par.selected, serial.selected) << n << " threads";
    EXPECT_EQ(par.coefficients, serial.coefficients) << n << " threads";
    EXPECT_EQ(par.validation_errors, serial.validation_errors)
        << n << " threads";
  }
}

}  // namespace
}  // namespace bmf
