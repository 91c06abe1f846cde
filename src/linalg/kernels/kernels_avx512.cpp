// AVX-512 kernel table (8 doubles per lane-group). Compiled with
// -mavx512f -mavx512dq -mavx512vl via per-file flags; stubs to nullptr on
// toolchains without AVX-512 support, exactly like the AVX2 TU.
//
// Same determinism contract as the AVX2 table: lane structure and the
// reduction tree depend only on n; Hermite tails are padded through the
// full 8-lane path.
#include "linalg/kernels/tables.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include <cmath>
#include <vector>

namespace bmf::linalg::kernels {
namespace {

// Fixed horizontal sum: 512 -> 256 (low + high), then the AVX2 tree.
inline double hsum512(__m512d v) {
  const __m256d lo = _mm512_castpd512_pd256(v);
  const __m256d hi = _mm512_extractf64x4_pd(v, 1);
  const __m256d q = _mm256_add_pd(lo, hi);
  const __m128d pair = _mm_add_pd(_mm256_castpd256_pd128(q),
                                  _mm256_extractf128_pd(q, 1));
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

double dot_avx512(const double* a, const double* b, std::size_t n) {
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  __m512d acc2 = _mm512_setzero_pd(), acc3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
    acc1 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 8),
                           _mm512_loadu_pd(b + i + 8), acc1);
    acc2 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 16),
                           _mm512_loadu_pd(b + i + 16), acc2);
    acc3 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i + 24),
                           _mm512_loadu_pd(b + i + 24), acc3);
  }
  for (; i + 8 <= n; i += 8)
    acc0 = _mm512_fmadd_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i),
                           acc0);
  double s = hsum512(_mm512_add_pd(_mm512_add_pd(acc0, acc1),
                                   _mm512_add_pd(acc2, acc3)));
  for (; i < n; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

void axpy_avx512(double alpha, const double* x, double* y, std::size_t n) {
  const __m512d va = _mm512_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(
        y + i, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + i),
                               _mm512_loadu_pd(y + i)));
  for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void mul_avx512(const double* a, const double* b, double* out,
                std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    _mm512_storeu_pd(
        out + i, _mm512_mul_pd(_mm512_loadu_pd(a + i),
                               _mm512_loadu_pd(b + i)));
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// 4x8 tile: one zmm accumulator per row.
void micro_4x8_avx512(const double* ap, const double* bp, std::size_t kc,
                      double* acc) {
  __m512d c0 = _mm512_loadu_pd(acc + 0);
  __m512d c1 = _mm512_loadu_pd(acc + 8);
  __m512d c2 = _mm512_loadu_pd(acc + 16);
  __m512d c3 = _mm512_loadu_pd(acc + 24);
  for (std::size_t p = 0; p < kc; ++p, ap += 4, bp += 8) {
    const __m512d b0 = _mm512_loadu_pd(bp);
    c0 = _mm512_fmadd_pd(_mm512_set1_pd(ap[0]), b0, c0);
    c1 = _mm512_fmadd_pd(_mm512_set1_pd(ap[1]), b0, c1);
    c2 = _mm512_fmadd_pd(_mm512_set1_pd(ap[2]), b0, c2);
    c3 = _mm512_fmadd_pd(_mm512_set1_pd(ap[3]), b0, c3);
  }
  _mm512_storeu_pd(acc + 0, c0);
  _mm512_storeu_pd(acc + 8, c1);
  _mm512_storeu_pd(acc + 16, c2);
  _mm512_storeu_pd(acc + 24, c3);
}

void hermite_block8(const double* sq, unsigned max_degree, __m512d vx,
                    double* out, std::size_t ldo) {
  __m512d prev = _mm512_set1_pd(1.0);
  _mm512_storeu_pd(out, prev);
  if (max_degree == 0) return;
  __m512d cur = vx;
  _mm512_storeu_pd(out + ldo, cur);
  for (unsigned k = 1; k < max_degree; ++k) {
    const __m512d t = _mm512_mul_pd(vx, cur);
    const __m512d num = _mm512_fnmadd_pd(_mm512_set1_pd(sq[k]), prev, t);
    const __m512d next = _mm512_div_pd(num, _mm512_set1_pd(sq[k + 1]));
    prev = cur;
    cur = next;
    _mm512_storeu_pd(out + (k + 1) * ldo, cur);
  }
}

void hermite_all_avx512(unsigned max_degree, const double* x, std::size_t n,
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
  for (; p + 8 <= n; p += 8)
    hermite_block8(sq, max_degree, _mm512_loadu_pd(x + p), out + p, ldo);
  if (p < n) {
    const std::size_t rem = n - p;
    double xin[8] = {};
    for (std::size_t l = 0; l < rem; ++l) xin[l] = x[p + l];
    std::vector<double> tile(8 * (static_cast<std::size_t>(max_degree) + 1));
    hermite_block8(sq, max_degree, _mm512_loadu_pd(xin), tile.data(), 8);
    for (unsigned d = 0; d <= max_degree; ++d)
      for (std::size_t l = 0; l < rem; ++l)
        out[d * ldo + p + l] = tile[d * 8 + l];
  }
}

constexpr KernelTable kAvx512Table{
    SimdLevel::kAvx512, dot_avx512,         axpy_avx512,      mul_avx512,
    micro_4x8_avx512,   hermite_all_avx512,
};

}  // namespace

const KernelTable* avx512_table() { return &kAvx512Table; }

}  // namespace bmf::linalg::kernels

#else  // toolchain without AVX-512: dispatch sees nullptr and skips it.

namespace bmf::linalg::kernels {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace bmf::linalg::kernels

#endif
