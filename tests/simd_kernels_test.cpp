// Contract tests for the runtime-dispatched SIMD kernel layer
// (src/linalg/kernels/). Four claims are pinned down:
//
//   1. Every kernel handles ragged extents (tails shorter than a vector
//      lane, zero-length inputs) at every compiled-in level.
//   2. Within a fixed level, higher-level ops built on the kernels are
//      bit-identical at any thread count (accumulation order is a
//      function of operand shape only).
//   3. Across levels, results agree to tight ulp-scale tolerances — not
//      bitwise (FMA contraction and wider accumulator trees reorder the
//      rounding) — and the scalar level matches a plain reference loop
//      exactly.
//   4. The dispatch-reporting API (dispatch_info, level_name,
//      parse_level, table_for, force_active_level) is self-consistent.
//
// Levels the host cannot run are skipped, not failed: the suite must pass
// on a non-AVX machine where only the scalar table is available.
#include "linalg/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "basis/basis_set.hpp"
#include "basis/hermite.hpp"
#include "linalg/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/rng.hpp"

namespace bmf {
namespace {

namespace kn = linalg::kernels;

std::vector<kn::SimdLevel> available_levels() {
  std::vector<kn::SimdLevel> out;
  for (kn::SimdLevel level : {kn::SimdLevel::kScalar, kn::SimdLevel::kAvx2,
                              kn::SimdLevel::kAvx512})
    if (kn::level_available(level)) out.push_back(level);
  return out;
}

// Pins the process-wide active table to `level` for the scope of one test
// body, restoring whatever was active before.
class ScopedLevel {
 public:
  explicit ScopedLevel(kn::SimdLevel level)
      : prev_(kn::dispatch_info().active) {
    EXPECT_TRUE(kn::force_active_level(level));
  }
  ~ScopedLevel() { kn::force_active_level(prev_); }

 private:
  kn::SimdLevel prev_;
};

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { parallel::set_num_threads(n); }
  ~ScopedThreads() { parallel::set_num_threads(0); }
};

// Extents around every lane boundary the three levels care about (4-lane
// unroll, 4-wide AVX2, 8-wide AVX-512), plus zero and a long tail-heavy
// size.
const std::size_t kRaggedSizes[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                    11, 15, 16, 17, 23, 31, 32, 33, 63,
                                    64, 65, 100, 127, 129};

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal();
  return v;
}

double naive_dot(const double* a, const double* b, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

TEST(SimdKernels, RaggedShapesAllLevels) {
  for (kn::SimdLevel level : available_levels()) {
    SCOPED_TRACE(kn::level_name(level));
    const kn::KernelTable& kt = kn::table_for(level);
    for (std::size_t n : kRaggedSizes) {
      SCOPED_TRACE(n);
      const auto a = random_vec(n, 2 * n + 1);
      const auto b = random_vec(n, 2 * n + 2);
      const auto c = random_vec(n, 2 * n + 3);

      // Reductions: ulp-scale agreement with the naive loop.
      const double tol = 1e-13 * (static_cast<double>(n) + 1.0);
      EXPECT_NEAR(kt.dot(a.data(), b.data(), n),
                  naive_dot(a.data(), b.data(), n), tol);

      // Elementwise ops: per-element agreement (axpy may contract to FMA
      // at the vector levels, so compare against both roundings).
      std::vector<double> y = c;
      kt.axpy(0.75, a.data(), y.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double plain = c[i] + 0.75 * a[i];
        const double fused = std::fma(0.75, a[i], c[i]);
        EXPECT_TRUE(y[i] == plain || y[i] == fused)
            << "axpy element " << i << ": " << y[i];
      }
      std::vector<double> prod(n);
      kt.mul(a.data(), b.data(), prod.data(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(prod[i], a[i] * b[i]);
    }
  }
}

TEST(SimdKernels, MicrokernelMatchesScalarReference) {
  const kn::KernelTable& ref = kn::table_for(kn::SimdLevel::kScalar);
  for (kn::SimdLevel level : available_levels()) {
    SCOPED_TRACE(kn::level_name(level));
    const kn::KernelTable& kt = kn::table_for(level);
    for (std::size_t kc : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                           std::size_t{7}, std::size_t{8}, std::size_t{37}}) {
      SCOPED_TRACE(kc);
      const auto ap = random_vec(kc * kn::kMicroRows, 91 + kc);
      const auto bp = random_vec(kc * kn::kMicroCols, 92 + kc);
      std::vector<double> acc(kn::kMicroRows * kn::kMicroCols, 0.5);
      std::vector<double> want = acc;
      kt.micro_4x8(ap.data(), bp.data(), kc, acc.data());
      ref.micro_4x8(ap.data(), bp.data(), kc, want.data());
      for (std::size_t i = 0; i < acc.size(); ++i)
        EXPECT_NEAR(acc[i], want[i],
                    1e-13 * (static_cast<double>(kc) + 1.0));
    }
  }
}

// Within one level, gemm/gemv bits must not depend on the thread count:
// the kernels' accumulation order is shape-only, and the parallel layer
// partitions deterministically.
TEST(SimdKernels, ThreadCountBitIdentityPerLevel) {
  const std::size_t m = 67, k = 45, n = 33;
  stats::Rng rng(7);
  linalg::Matrix a(m, k), b(k, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();
  linalg::Vector x(k);
  for (double& v : x) v = rng.normal();

  for (kn::SimdLevel level : available_levels()) {
    SCOPED_TRACE(kn::level_name(level));
    ScopedLevel scoped(level);

    linalg::Matrix c1, c4;
    linalg::Vector y1, y4;
    {
      ScopedThreads threads(1);
      c1 = linalg::gemm(a, b);
      y1 = linalg::gemv(a, x);
    }
    {
      ScopedThreads threads(4);
      c4 = linalg::gemm(a, b);
      y4 = linalg::gemv(a, x);
    }
    ASSERT_EQ(c1.size(), c4.size());
    EXPECT_EQ(std::memcmp(c1.data(), c4.data(), c1.size() * sizeof(double)),
              0);
    ASSERT_EQ(y1.size(), y4.size());
    EXPECT_EQ(std::memcmp(y1.data(), y4.data(), y1.size() * sizeof(double)),
              0);
  }
}

// Across levels only rounding-level agreement is promised; pin the
// tolerance so a future kernel can't silently loosen it.
TEST(SimdKernels, CrossLevelUlpAgreement) {
  const auto levels = available_levels();
  if (levels.size() < 2) GTEST_SKIP() << "only one level available";

  const std::size_t m = 53, k = 38, n = 29;
  stats::Rng rng(17);
  linalg::Matrix a(m, k), b(k, n);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.normal();
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.normal();

  linalg::Matrix ref;
  {
    ScopedLevel scoped(kn::SimdLevel::kScalar);
    ref = linalg::gemm(a, b);
  }
  for (kn::SimdLevel level : levels) {
    if (level == kn::SimdLevel::kScalar) continue;
    SCOPED_TRACE(kn::level_name(level));
    ScopedLevel scoped(level);
    const linalg::Matrix got = linalg::gemm(a, b);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const double scale =
          std::max(1.0, std::abs(ref.data()[i]));
      EXPECT_NEAR(got.data()[i], ref.data()[i],
                  1e-13 * static_cast<double>(k) * scale);
    }
  }
}

// The batched Hermite recurrence must give every point the value sequence
// of the one-point path: results cannot depend on where a point falls
// relative to the lane width or a caller's block boundary.
TEST(SimdKernels, HermiteBatchLanePositionIndependent) {
  constexpr unsigned kMaxDegree = 9;
  const std::size_t n = 65;  // 8 full AVX-512 lanes + 1-point tail
  const auto x = random_vec(n, 23);
  for (kn::SimdLevel level : available_levels()) {
    SCOPED_TRACE(kn::level_name(level));
    ScopedLevel scoped(level);
    std::vector<double> batch((kMaxDegree + 1) * n);
    basis::hermite_orthonormal_batch(kMaxDegree, x.data(), n, batch.data(),
                                     n);
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<double> one(kMaxDegree + 1);
      basis::hermite_orthonormal_batch(kMaxDegree, &x[p], 1, one.data(), 1);
      for (unsigned d = 0; d <= kMaxDegree; ++d)
        EXPECT_EQ(batch[d * n + p], one[d])
            << "degree " << d << " point " << p;
    }
  }
}

// Scalar-level batch must reproduce the historical per-point recurrence
// bit-for-bit (BMF_SIMD_LEVEL=scalar reproduces pre-dispatch results).
TEST(SimdKernels, ScalarHermiteMatchesSinglePointExactly) {
  ScopedLevel scoped(kn::SimdLevel::kScalar);
  constexpr unsigned kMaxDegree = 7;
  const auto x = random_vec(33, 29);
  std::vector<double> batch((kMaxDegree + 1) * x.size());
  basis::hermite_orthonormal_batch(kMaxDegree, x.data(), x.size(),
                                   batch.data(), x.size());
  for (std::size_t p = 0; p < x.size(); ++p) {
    const auto all = basis::hermite_orthonormal_all(kMaxDegree, x[p]);
    for (unsigned d = 0; d <= kMaxDegree; ++d)
      EXPECT_EQ(batch[d * x.size() + p], all[d]);
  }
}

TEST(SimdKernels, DesignMatrixCrossLevelTolerance) {
  const auto basis_set = basis::BasisSet::linear_plus_diagonal_quadratic(6);
  stats::Rng rng(31);
  linalg::Matrix points(41, 6);
  for (std::size_t i = 0; i < points.size(); ++i)
    points.data()[i] = rng.normal();

  linalg::Matrix ref;
  {
    ScopedLevel scoped(kn::SimdLevel::kScalar);
    ref = basis::design_matrix(basis_set, points);
  }
  for (kn::SimdLevel level : available_levels()) {
    if (level == kn::SimdLevel::kScalar) continue;
    SCOPED_TRACE(kn::level_name(level));
    ScopedLevel scoped(level);
    const linalg::Matrix got = basis::design_matrix(basis_set, points);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_NEAR(got.data()[i], ref.data()[i],
                  1e-12 * std::max(1.0, std::abs(ref.data()[i])));
  }
}

TEST(SimdKernels, DispatchInfoSelfConsistent) {
  const kn::DispatchInfo info = kn::dispatch_info();

  // The detected level is always compiled in, available, and at least
  // scalar; the active table actually is the level it claims.
  EXPECT_TRUE(kn::level_available(info.detected));
  EXPECT_TRUE(kn::level_available(info.active));
  EXPECT_TRUE(kn::level_compiled(kn::SimdLevel::kScalar));
  EXPECT_TRUE(kn::level_available(kn::SimdLevel::kScalar));

  // env_override and env_ignored cannot both hold; without an override the
  // active level is the detected one. (Every ScopedLevel above restored
  // the previously active table, so the resolution record is unperturbed.)
  EXPECT_FALSE(info.env_override && info.env_ignored);
  if (!info.env_override) {
    EXPECT_EQ(info.active, info.detected);
  }
  if (info.env_value.empty()) {
    EXPECT_FALSE(info.env_override);
    EXPECT_FALSE(info.env_ignored);
  }

  for (kn::SimdLevel level : available_levels())
    EXPECT_EQ(kn::table_for(level).level, level);
}

TEST(SimdKernels, LevelNamesRoundTrip) {
  for (kn::SimdLevel level : {kn::SimdLevel::kScalar, kn::SimdLevel::kAvx2,
                              kn::SimdLevel::kAvx512}) {
    kn::SimdLevel parsed;
    ASSERT_TRUE(kn::parse_level(kn::level_name(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  kn::SimdLevel sink = kn::SimdLevel::kScalar;
  EXPECT_FALSE(kn::parse_level("sse9", sink));
  EXPECT_FALSE(kn::parse_level("", sink));
  EXPECT_EQ(sink, kn::SimdLevel::kScalar);  // untouched on failure
}

TEST(SimdKernels, UnavailableLevelIsRejected) {
  for (kn::SimdLevel level : {kn::SimdLevel::kAvx2, kn::SimdLevel::kAvx512}) {
    if (kn::level_available(level)) continue;
    EXPECT_THROW(kn::table_for(level), std::invalid_argument);
    EXPECT_FALSE(kn::force_active_level(level));
  }
  SUCCEED();  // on a full-AVX-512 host there is nothing to reject
}

}  // namespace
}  // namespace bmf
