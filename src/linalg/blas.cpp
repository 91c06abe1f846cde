#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/contracts.hpp"
#include "linalg/kernels/kernels.hpp"
#include "parallel/thread_pool.hpp"

namespace bmf::linalg {

namespace {
// Below this many inner-loop flops a kernel runs serially: the dispatch
// cost of a parallel region would dominate. Parallel partitions are always
// over disjoint *output rows*, and every output element accumulates its
// terms in an order that depends only on the problem shape — never on the
// thread count — so results are bit-identical at any thread count (for a
// fixed SIMD level; see linalg/kernels/kernels.hpp for the per-level
// determinism contract).
constexpr std::size_t kParallelFlopCutoff = 1u << 16;

void maybe_parallel_rows(std::size_t rows, std::size_t flops_total,
                         std::size_t grain,
                         const parallel::RangeBody& body) {
  if (flops_total < kParallelFlopCutoff) {
    body(0, rows);
    return;
  }
  parallel::parallel_for(0, rows, grain, body);
}
}  // namespace

double dot(const Vector& a, const Vector& b) {
  LINALG_REQUIRE(a.size() == b.size(), "dot size mismatch");
  return kernels::active().dot(a.data(), b.data(), a.size());
}

void axpy(double alpha, const Vector& x, Vector& y) {
  LINALG_REQUIRE(x.size() == y.size(), "axpy size mismatch");
  BMF_EXPECTS(check::no_overlap(x.data(), x.size() * sizeof(double), y.data(),
                                y.size() * sizeof(double)),
              "axpy input and output must not alias");
  kernels::active().axpy(alpha, x.data(), y.data(), x.size());
}

void scal(double alpha, Vector& x) {
  for (double& v : x) v *= alpha;
}

double norm2(const Vector& x) { return std::sqrt(dot(x, x)); }

double norm_inf(const Vector& x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

Vector sub(const Vector& a, const Vector& b) {
  LINALG_REQUIRE(a.size() == b.size(), "sub size mismatch");
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

Vector add(const Vector& a, const Vector& b) {
  LINALG_REQUIRE(a.size() == b.size(), "add size mismatch");
  Vector r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] + b[i];
  return r;
}

Vector gemv(const Matrix& a, const Vector& x) {
  BMF_EXPECTS_DIMS(a.cols() == x.size(),
                   "gemv: matrix columns must match vector length",
                   {"a.cols", a.cols()}, {"x.size", x.size()});
  LINALG_REQUIRE(a.cols() == x.size(), "gemv shape mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(a) && check::all_finite(x),
                   "gemv operands must be finite", {"a.rows", a.rows()},
                   {"a.cols", a.cols()});
  const std::size_t m = a.rows(), n = a.cols();
  Vector y(m, 0.0);
  const kernels::KernelTable& kt = kernels::active();
  maybe_parallel_rows(m, m * n, 64, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i)
      y[i] = kt.dot(a.row_ptr(i), x.data(), n);
  });
  return y;
}

Vector gemv_t(const Matrix& a, const Vector& x) {
  LINALG_REQUIRE(a.rows() == x.size(), "gemv_t shape mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(a) && check::all_finite(x),
                   "gemv_t operands must be finite", {"a.rows", a.rows()},
                   {"a.cols", a.cols()});
  const std::size_t k = a.rows(), n = a.cols();
  Vector y(n, 0.0);
  // Threads own disjoint column ranges of y; every thread sweeps all rows in
  // ascending order, so each y[j] accumulates its terms in the serial order.
  const kernels::KernelTable& kt = kernels::active();
  maybe_parallel_rows(n, k * n, 64, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t i = 0; i < k; ++i) {
      const double xi = x[i];
      if (xi == 0.0) continue;
      kt.axpy(xi, a.row_ptr(i) + c0, y.data() + c0, c1 - c0);
    }
  });
  return y;
}

namespace {
// Register-blocked microkernel geometry. Every macro tile is zero-padded to
// the full kMr x kNr accumulator grid, so all of GEMM runs through one code
// path: a tile's FP accumulation order (p ascending within each p-block,
// p-blocks ascending) depends only on the problem shape, never on where
// thread-chunk or tile boundaries fall. The rank-1 update itself comes
// from the active SIMD kernel table; the geometry is the same at every
// level so the packed-panel format never changes.
constexpr std::size_t kMr = kernels::kMicroRows;  // rows per register tile
constexpr std::size_t kNr = kernels::kMicroCols;  // columns per register tile
constexpr std::size_t kKc = 512; // p-block depth (A panel stays cache-hot)
// Thread grain over output rows: a multiple of kMr, so row tiles line up
// with chunk boundaries identically at every thread count.
constexpr std::size_t kRowGrain = 64;

// Pack `count` logical rows [r0, r0+count) over p in [p0, p0+kc) into a
// p-major panel of width w, zero-padding rows beyond `count`.
// src(r, p) supplies the element.
template <typename Src>
void pack_pmajor(const Src& src, std::size_t p0, std::size_t kc,
                 std::size_t r0, std::size_t count, std::size_t w,
                 double* out) {
  for (std::size_t p = 0; p < kc; ++p)
    for (std::size_t r = 0; r < w; ++r)
      out[p * w + r] = r < count ? src(r0 + r, p0 + p) : 0.0;
}

// Shared blocked driver: C(m x n) += sum_p asrc(i, p) * bsrc(j, p).
// B is packed once into p-major kNr panels; each thread packs the A tiles
// of its own row range. Tail tiles are zero-padded, so the 4x8 microkernel
// is the only accumulation path.
template <typename ASrc, typename BSrc>
void gemm_driver(std::size_t m, std::size_t n, std::size_t k,
                 const ASrc& asrc, const BSrc& bsrc, Matrix& c) {
  if (m == 0 || n == 0 || k == 0) return;
  const std::size_t npanels = (n + kNr - 1) / kNr;
  std::vector<double> bpack(npanels * k * kNr);
  for (std::size_t jp = 0; jp < npanels; ++jp)
    pack_pmajor(bsrc, 0, k, jp * kNr, std::min(kNr, n - jp * kNr), kNr,
                bpack.data() + jp * k * kNr);
  // The microkernel assumes the packed B panels and the output tiles are
  // disjoint storage: an aliased C would feed half-accumulated values back
  // through the panel reads.
  BMF_CONTRACT(check::no_overlap(bpack.data(),
                                 bpack.size() * sizeof(double), c.data(),
                                 c.size() * sizeof(double)),
               "packed B panels must not alias the GEMM output");
  const kernels::KernelTable& kt = kernels::active();
  maybe_parallel_rows(m, m * n * k, kRowGrain, [&](std::size_t r0,
                                                   std::size_t r1) {
    std::vector<double> apack(std::min(k, kKc) * kMr);
    BMF_CONTRACT(check::no_overlap(apack.data(),
                                   apack.size() * sizeof(double), c.data(),
                                   c.size() * sizeof(double)),
                 "packed A tile must not alias the GEMM output");
    for (std::size_t i0 = r0; i0 < r1; i0 += kMr) {
      const std::size_t mr = std::min(kMr, r1 - i0);
      for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
        const std::size_t kc = std::min(kKc, k - p0);
        pack_pmajor(asrc, p0, kc, i0, mr, kMr, apack.data());
        for (std::size_t jp = 0; jp < npanels; ++jp) {
          double acc[kMr * kNr] = {};
          kt.micro_4x8(apack.data(), bpack.data() + jp * k * kNr + p0 * kNr,
                       kc, acc);
          const std::size_t j0 = jp * kNr, nr = std::min(kNr, n - j0);
          for (std::size_t ir = 0; ir < mr; ++ir) {
            double* ci = c.row_ptr(i0 + ir) + j0;
            for (std::size_t jr = 0; jr < nr; ++jr)
              ci[jr] += acc[ir * kNr + jr];
          }
        }
      }
    }
  });
}
}  // namespace

Matrix gemm(const Matrix& a, const Matrix& b) {
  LINALG_REQUIRE(a.cols() == b.rows(), "gemm shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n, 0.0);
  gemm_driver(
      m, n, k, [&](std::size_t i, std::size_t p) { return a(i, p); },
      [&](std::size_t j, std::size_t p) { return b(p, j); }, c);
  return c;
}

Matrix gemm_tn(const Matrix& a, const Matrix& b) {
  LINALG_REQUIRE(a.rows() == b.rows(), "gemm_tn shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix c(m, n, 0.0);
  gemm_driver(
      m, n, k, [&](std::size_t i, std::size_t p) { return a(p, i); },
      [&](std::size_t j, std::size_t p) { return b(p, j); }, c);
  return c;
}

Matrix gemm_nt(const Matrix& a, const Matrix& b) {
  LINALG_REQUIRE(a.cols() == b.cols(), "gemm_nt shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n, 0.0);
  gemm_driver(
      m, n, k, [&](std::size_t i, std::size_t p) { return a(i, p); },
      [&](std::size_t j, std::size_t p) { return b(j, p); }, c);
  return c;
}

Matrix gram(const Matrix& g) {
  BMF_EXPECTS_DIMS(check::all_finite(g), "gram operand must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  const std::size_t k = g.rows(), m = g.cols();
  Matrix c(m, m, 0.0);
  // Upper-triangle rows are partitioned across threads; every thread sweeps
  // all K samples over its own rows (accumulation order per element is
  // unchanged). The symmetric-fill epilogue stays serial — it is O(M^2)
  // copies against the O(K M^2) accumulation.
  const kernels::KernelTable& kt = kernels::active();
  maybe_parallel_rows(m, k * m * m / 2, 0,
                      [&](std::size_t r0, std::size_t r1) {
    for (std::size_t p = 0; p < k; ++p) {
      const double* gp = g.row_ptr(p);
      for (std::size_t i = r0; i < r1; ++i) {
        const double gpi = gp[i];
        if (gpi == 0.0) continue;
        kt.axpy(gpi, gp + i, c.row_ptr(i) + i, m - i);
      }
    }
  });
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  return c;
}

Matrix outer_gram_weighted(const Matrix& g, const Vector& d) {
  LINALG_REQUIRE(g.cols() == d.size(), "outer_gram_weighted size mismatch");
  BMF_EXPECTS_DIMS(check::all_finite(g) && check::all_finite(d),
                   "outer_gram_weighted operands must be finite",
                   {"g.rows", g.rows()}, {"g.cols", g.cols()});
  const std::size_t k = g.rows(), m = g.cols();
  Matrix c(k, k, 0.0);
  const kernels::KernelTable& kt = kernels::active();
  maybe_parallel_rows(k, k * k * m / 2, 0,
                      [&](std::size_t r0, std::size_t r1) {
    // Per-chunk scratch: the diag-scaled row g_i .* d is formed once per
    // output row i and reused across all j >= i inner products.
    std::vector<double> scaled(m);
    for (std::size_t i = r0; i < r1; ++i) {
      kt.mul(g.row_ptr(i), d.data(), scaled.data(), m);
      for (std::size_t j = i; j < k; ++j)
        c(i, j) = kt.dot(scaled.data(), g.row_ptr(j), m);
    }
  });
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
  return c;
}

}  // namespace bmf::linalg
