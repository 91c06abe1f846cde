// AVX2+FMA kernel table (4 doubles per lane-group). Compiled with
// -mavx2 -mfma via per-file flags in src/linalg/CMakeLists.txt; when the
// toolchain cannot target AVX2 this TU degrades to a stub returning
// nullptr and dispatch falls back to scalar.
//
// Determinism within this level: every loop's lane structure (16-wide main
// body, 4-wide secondary, scalar tail for dot; 4-wide + scalar tail for
// the elementwise kernels) and the reduction tree depend only on n, so a
// fixed shape always produces identical bits regardless of the calling
// thread or tile. The Hermite kernel pads short tails through the same
// 4-lane code path for the same reason.
#include "linalg/kernels/tables.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <vector>

namespace bmf::linalg::kernels {
namespace {

// Fixed horizontal sum: lanes reduce as ((l0+l2) + (l1+l3)).
inline double hsum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd(), acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= n; i += 4)
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  double s = hsum(_mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                _mm256_add_pd(acc2, acc3)));
  for (; i < n; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

void axpy_avx2(double alpha, const double* x, double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i),
                               _mm256_loadu_pd(y + i)));
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void mul_avx2(const double* a, const double* b, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(
        out + i, _mm256_mul_pd(_mm256_loadu_pd(a + i),
                               _mm256_loadu_pd(b + i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// 4x8 tile as 4 rows x 2 ymm columns, all eight accumulators held in
// registers across the kc loop.
void micro_4x8_avx2(const double* ap, const double* bp, std::size_t kc,
                    double* acc) {
  __m256d c00 = _mm256_loadu_pd(acc + 0), c01 = _mm256_loadu_pd(acc + 4);
  __m256d c10 = _mm256_loadu_pd(acc + 8), c11 = _mm256_loadu_pd(acc + 12);
  __m256d c20 = _mm256_loadu_pd(acc + 16), c21 = _mm256_loadu_pd(acc + 20);
  __m256d c30 = _mm256_loadu_pd(acc + 24), c31 = _mm256_loadu_pd(acc + 28);
  for (std::size_t p = 0; p < kc; ++p, ap += 4, bp += 8) {
    const __m256d b0 = _mm256_loadu_pd(bp);
    const __m256d b1 = _mm256_loadu_pd(bp + 4);
    __m256d a0 = _mm256_broadcast_sd(ap + 0);
    c00 = _mm256_fmadd_pd(a0, b0, c00);
    c01 = _mm256_fmadd_pd(a0, b1, c01);
    __m256d a1 = _mm256_broadcast_sd(ap + 1);
    c10 = _mm256_fmadd_pd(a1, b0, c10);
    c11 = _mm256_fmadd_pd(a1, b1, c11);
    __m256d a2 = _mm256_broadcast_sd(ap + 2);
    c20 = _mm256_fmadd_pd(a2, b0, c20);
    c21 = _mm256_fmadd_pd(a2, b1, c21);
    __m256d a3 = _mm256_broadcast_sd(ap + 3);
    c30 = _mm256_fmadd_pd(a3, b0, c30);
    c31 = _mm256_fmadd_pd(a3, b1, c31);
  }
  _mm256_storeu_pd(acc + 0, c00);
  _mm256_storeu_pd(acc + 4, c01);
  _mm256_storeu_pd(acc + 8, c10);
  _mm256_storeu_pd(acc + 12, c11);
  _mm256_storeu_pd(acc + 16, c20);
  _mm256_storeu_pd(acc + 20, c21);
  _mm256_storeu_pd(acc + 24, c30);
  _mm256_storeu_pd(acc + 28, c31);
}

// One 4-lane block of the normalized recurrence
//   Hhat_{k+1} = (x * Hhat_k - sqrt(k) * Hhat_{k-1}) / sqrt(k+1),
// with sqrt(k) precomputed in `sq` (sq[k] = sqrt(k), k <= max_degree).
void hermite_block4(const double* sq, unsigned max_degree, __m256d vx,
                    double* out, std::size_t ldo) {
  __m256d prev = _mm256_set1_pd(1.0);
  _mm256_storeu_pd(out, prev);
  if (max_degree == 0) return;
  __m256d cur = vx;
  _mm256_storeu_pd(out + ldo, cur);
  for (unsigned k = 1; k < max_degree; ++k) {
    const __m256d t = _mm256_mul_pd(vx, cur);
    const __m256d num = _mm256_fnmadd_pd(_mm256_set1_pd(sq[k]), prev, t);
    const __m256d next = _mm256_div_pd(num, _mm256_set1_pd(sq[k + 1]));
    prev = cur;
    cur = next;
    _mm256_storeu_pd(out + (k + 1) * ldo, cur);
  }
}

void hermite_all_avx2(unsigned max_degree, const double* x, std::size_t n,
                      double* out, std::size_t ldo) {
  constexpr unsigned kStackDegrees = 64;
  double sq_stack[kStackDegrees + 1];
  std::vector<double> sq_heap;
  double* sq = sq_stack;
  if (max_degree > kStackDegrees) {
    sq_heap.resize(max_degree + 1);
    sq = sq_heap.data();
  }
  for (unsigned k = 0; k <= max_degree; ++k)
    sq[k] = std::sqrt(static_cast<double>(k));

  std::size_t p = 0;
  for (; p + 4 <= n; p += 4)
    hermite_block4(sq, max_degree, _mm256_loadu_pd(x + p), out + p, ldo);
  if (p < n) {
    // Pad the tail through the identical 4-lane path so a point's bits do
    // not depend on where the batch boundary falls.
    const std::size_t rem = n - p;
    double xin[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < rem; ++l) xin[l] = x[p + l];
    std::vector<double> tile(4 * (static_cast<std::size_t>(max_degree) + 1));
    hermite_block4(sq, max_degree, _mm256_loadu_pd(xin), tile.data(), 4);
    for (unsigned d = 0; d <= max_degree; ++d)
      for (std::size_t l = 0; l < rem; ++l)
        out[d * ldo + p + l] = tile[d * 4 + l];
  }
}

constexpr KernelTable kAvx2Table{
    SimdLevel::kAvx2, dot_avx2,         axpy_avx2,        mul_avx2,
    micro_4x8_avx2,   hermite_all_avx2,
};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace bmf::linalg::kernels

#else  // toolchain without AVX2+FMA: dispatch sees nullptr and skips it.

namespace bmf::linalg::kernels {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace bmf::linalg::kernels

#endif
