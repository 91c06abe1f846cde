#include "linalg/eigen_sym.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/contracts.hpp"

namespace bmf::linalg {

namespace {

// Every loop below walks rows of the row-major working matrix. The
// floating-point operations are those of the textbook tred2 + tqli (which
// walk columns) in the same per-element order, so the result is
// bit-identical to it; the comments name the textbook step each loop
// reorders.

// sqrt(a^2 + b^2) without destructive underflow/overflow.
double hypot2(double a, double b) { return std::hypot(a, b); }

// p = A u for the symmetric leading m x m block of `a`, read from its lower
// triangle in one pass over the rows. tred2 sums p[j] as its row part
// (k <= j) followed by its column part (k > j), each in ascending k. Row k
// completes p[k]'s row part and then adds its column terms to every p[j],
// j < k, so each p[j] receives its terms in exactly that order. Rows go
// four at a time: their independent row-part add chains overlap, and each
// p[j] is loaded once for their four column terms.
void lower_symmetric_matvec(const Matrix& a, const double* u, std::size_t m,
                            double* p) {
  std::size_t k = 0;
  for (; k + 4 <= m; k += 4) {
    const double* r0 = a.row_ptr(k);
    const double* r1 = a.row_ptr(k + 1);
    const double* r2 = a.row_ptr(k + 2);
    const double* r3 = a.row_ptr(k + 3);
    const double u0 = u[k], u1 = u[k + 1], u2 = u[k + 2], u3 = u[k + 3];
    double g0 = 0.0, g1 = 0.0, g2 = 0.0, g3 = 0.0;
    for (std::size_t j = 0; j <= k; ++j) {
      g0 += r0[j] * u[j];
      g1 += r1[j] * u[j];
      g2 += r2[j] * u[j];
      g3 += r3[j] * u[j];
    }
    g1 += r1[k + 1] * u1;
    g2 += r2[k + 1] * u1;
    g3 += r3[k + 1] * u1;
    g2 += r2[k + 2] * u2;
    g3 += r3[k + 2] * u2;
    g3 += r3[k + 3] * u3;
    for (std::size_t j = 0; j < k; ++j)
      p[j] = p[j] + r0[j] * u0 + r1[j] * u1 + r2[j] * u2 + r3[j] * u3;
    p[k] = g0 + r1[k] * u1 + r2[k] * u2 + r3[k] * u3;
    p[k + 1] = g1 + r2[k + 1] * u2 + r3[k + 1] * u3;
    p[k + 2] = g2 + r3[k + 2] * u3;
    p[k + 3] = g3;
  }
  for (; k < m; ++k) {
    const double* r = a.row_ptr(k);
    double g = 0.0;
    for (std::size_t j = 0; j <= k; ++j) g += r[j] * u[j];
    for (std::size_t j = 0; j < k; ++j) p[j] += r[j] * u[k];
    p[k] = g;
  }
}

// Householder reduction of symmetric `a` (modified in place to hold the
// accumulated orthogonal transform) to tridiagonal form (d = diagonal,
// e = subdiagonal with e[0] unused). Follows the classic tred2 scheme.
void tridiagonalize(Matrix& a, Vector& d, Vector& e) {
  const std::size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (std::size_t ii = n; ii-- > 1;) {
    const std::size_t i = ii;
    const std::size_t l = i - 1;
    double* ai = a.row_ptr(i);
    double h = 0.0, scale = 0.0;
    if (l > 0) {
      for (std::size_t k = 0; k <= l; ++k) scale += std::abs(ai[k]);
      if (scale == 0.0) {
        e[i] = ai[l];
      } else {
        for (std::size_t k = 0; k <= l; ++k) {
          ai[k] /= scale;
          h += ai[k] * ai[k];
        }
        double f = ai[l];
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        ai[l] = f - g;
        lower_symmetric_matvec(a, ai, l + 1, e.data());  // p = A u
        f = 0.0;
        for (std::size_t j = 0; j <= l; ++j) {
          a(j, i) = ai[j] / h;  // store u/H for eigenvector accumulation
          e[j] /= h;
          f += e[j] * ai[j];
        }
        const double hh = f / (h + h);
        // tred2 updates e[j] just before row j; row j reads only e[k <= j],
        // so updating all of e first changes nothing.
        for (std::size_t j = 0; j <= l; ++j) e[j] -= hh * ai[j];
        for (std::size_t j = 0; j <= l; ++j) {
          double* aj = a.row_ptr(j);
          f = ai[j];
          g = e[j];
          for (std::size_t k = 0; k <= j; ++k)
            aj[k] -= f * e[k] + g * ai[k];
        }
      }
    } else {
      e[i] = ai[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  // Accumulate the transformation into `a`. Step i applies
  // A[0:i, 0:i] -= A[0:i, i] g^T with g = a(i, 0:i) A[0:i, 0:i]; tred2
  // forms and applies one column of that product at a time, and no column
  // reads another's update, so g is formed first (k outer, ascending) and
  // the rank-1 update then runs row by row. Row k is final once step i has
  // updated it, so that pass also accumulates the next step's product g_next
  // (row i + 1 is untouched by step i): one pass over A per step.
  Vector g(n), g_next(n);
  bool have_g = false;  // g already holds step i's product
  for (std::size_t i = 0; i < n; ++i) {
    double* ai = a.row_ptr(i);
    const bool fuse = d[i] != 0.0 && i + 1 < n && d[i + 1] != 0.0;
    const double* an = fuse ? a.row_ptr(i + 1) : nullptr;
    if (d[i] != 0.0) {
      if (!have_g) {
        std::fill(g.begin(), g.begin() + i, 0.0);
        for (std::size_t k = 0; k < i; ++k) {
          const double* ak = a.row_ptr(k);
          const double aik = ai[k];
          for (std::size_t j = 0; j < i; ++j) g[j] += aik * ak[j];
        }
      }
      if (fuse) std::fill(g_next.begin(), g_next.begin() + i + 1, 0.0);
      for (std::size_t k = 0; k < i; ++k) {
        double* ak = a.row_ptr(k);
        const double aki = ak[i];
        for (std::size_t j = 0; j < i; ++j) ak[j] -= g[j] * aki;
        if (fuse) {
          ak[i] = 0.0;
          const double ank = an[k];
          for (std::size_t j = 0; j <= i; ++j) g_next[j] += ank * ak[j];
        }
      }
    }
    d[i] = ai[i];
    ai[i] = 1.0;
    for (std::size_t j = 0; j < i; ++j) a(j, i) = ai[j] = 0.0;
    if (fuse) {
      const double ani = an[i];
      for (std::size_t j = 0; j <= i; ++j) g_next[j] += ani * ai[j];
      std::swap(g, g_next);
    }
    have_g = fuse;
  }
}

// One Givens rotation of the QL iteration: it mixes eigenvector
// candidates i and i + 1.
struct Rotation {
  std::size_t i;
  double c, s;
};

// Columns per panel when a rotation log is applied: a panel of n rows
// stays cache-resident while every logged rotation sweeps over it.
constexpr std::size_t kPanelCols = 64;

// Applies `log` in order to the rows of zt (the transposed transform), one
// column panel at a time. Each entry is transformed by the same rotations
// in the same order as a direct application, only grouped differently:
// two consecutive rotations of one QL sweep (rows i + 1, i, then i, i - 1)
// run fused, so their shared row i stays in registers between them.
void apply_rotations(const std::vector<Rotation>& log, Matrix& zt) {
  const std::size_t n = zt.cols();
  for (std::size_t c0 = 0; c0 < n; c0 += kPanelCols) {
    const std::size_t c1 = std::min(n, c0 + kPanelCols);
    for (std::size_t t = 0; t < log.size();) {
      const Rotation& r1 = log[t];
      if (t + 1 < log.size() && log[t + 1].i + 1 == r1.i) {
        const Rotation& r2 = log[t + 1];
        double* hi = zt.row_ptr(r1.i + 1);
        double* mid = zt.row_ptr(r1.i);
        double* lo = zt.row_ptr(r2.i);
        for (std::size_t k = c0; k < c1; ++k) {
          const double f1 = hi[k];
          hi[k] = r1.s * mid[k] + r1.c * f1;
          const double f2 = r1.c * mid[k] - r1.s * f1;
          mid[k] = r2.s * lo[k] + r2.c * f2;
          lo[k] = r2.c * lo[k] - r2.s * f2;
        }
        t += 2;
      } else {
        double* lo = zt.row_ptr(r1.i);
        double* hi = zt.row_ptr(r1.i + 1);
        for (std::size_t k = c0; k < c1; ++k) {
          const double f = hi[k];
          hi[k] = r1.s * lo[k] + r1.c * f;
          lo[k] = r1.c * lo[k] - r1.s * f;
        }
        t += 1;
      }
    }
  }
}

// Implicit-shift QL on the tridiagonal (d, e), rotating the rows of zt
// (tqli rotates the columns of the untransposed transform). The d/e
// iteration never reads the transform, so its rotations are logged and
// applied in batches of at most ~4n.
void ql_implicit(Vector& d, Vector& e, Matrix& zt) {
  const std::size_t n = d.size();
  if (n == 0) return;
  std::vector<Rotation> log;
  const std::size_t log_capacity = 4 * n;
  log.reserve(log_capacity);
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    int iterations = 0;
    std::size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 + 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iterations == 50)
          throw std::runtime_error(
              "eigen_symmetric: QL iteration failed to converge");
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = hypot2(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0, c = 1.0, p = 0.0;
        for (std::size_t ii = m; ii-- > l;) {
          const std::size_t i = ii;
          double f = s * e[i];
          const double b = c * e[i];
          r = hypot2(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          log.push_back({i, c, s});
          if (log.size() == log_capacity) {
            apply_rotations(log, zt);
            log.clear();
          }
        }
        if (r == 0.0 && m - l > 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  apply_rotations(log, zt);
}

void transpose_in_place(Matrix& a) {
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) std::swap(a(i, j), a(j, i));
}

}  // namespace

SymmetricEigen eigen_symmetric(const Matrix& a) {
  LINALG_REQUIRE(a.rows() == a.cols(),
                 "eigen_symmetric requires a square matrix");
  // A NaN/Inf entry would spin the QL iteration to its sweep limit; reject
  // it as a contract violation instead of a convergence failure.
  BMF_EXPECTS_DIMS(check::all_finite(a),
                   "eigen_symmetric input must be finite",
                   {"a.rows", a.rows()});
  SymmetricEigen out;
  const std::size_t n = a.rows();
  if (n == 0) return out;
  // Work on a symmetrized copy (only the lower triangle is trusted).
  Matrix z = a;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) z(i, j) = z(j, i);
  Vector d, e;
  tridiagonalize(z, d, e);
  transpose_in_place(z);
  ql_implicit(d, e, z);
  // Sort ascending; row order[j] of the transposed transform becomes
  // eigenvector column j.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] < d[y]; });
  out.values.resize(n);
  out.vectors.assign(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.values[j] = d[order[j]];
    const double* src = z.row_ptr(order[j]);
    for (std::size_t i = 0; i < n; ++i) out.vectors(i, j) = src[i];
  }
  BMF_ENSURES_DIMS(check::is_ascending(out.values) &&
                       check::all_finite(out.values) &&
                       check::all_finite(out.vectors),
                   "eigen_symmetric must return finite ascending eigenvalues",
                   {"n", n});
  return out;
}

}  // namespace bmf::linalg
