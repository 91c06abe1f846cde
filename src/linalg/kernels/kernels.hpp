// Runtime-dispatched SIMD kernel layer for the BMF numeric hot paths.
//
// One KernelTable per instruction-set level (scalar / AVX2+FMA / AVX-512)
// implements the innermost loops the blas and basis layers run constantly:
// inner products, axpy, the 4x8 gemm microkernel, elementwise scaling, and
// the lane-parallel Hermite three-term recurrence. The table is selected
// once per process — cpuid at first use, overridable with
// BMF_SIMD_LEVEL={scalar,avx2,avx512} — and every higher-level kernel in
// linalg/blas.cpp and basis/basis_set.cpp routes its inner loop through
// the active table.
//
// Determinism contract (see DESIGN.md "SIMD kernel dispatch"):
//   * Within a level, every kernel's FP accumulation order depends only on
//     the operand shape — never on pointers, thread count, or where a
//     caller's tile boundaries fall — so all results are bit-identical at
//     any BMF_NUM_THREADS for a fixed level.
//   * Across levels, results agree only to rounding (wider accumulator
//     trees and FMA contraction change the rounding sequence); callers that
//     compare levels must use the tight ulp-scale tolerances the
//     simd_kernels tests pin down.
//
// Intrinsics are confined to src/linalg/kernels/ (lint.sh rule 7); this
// header is plain C++ so the rest of the repo stays ISA-agnostic.
#pragma once

#include <cstddef>
#include <string>

namespace bmf::linalg::kernels {

enum class SimdLevel : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Register-tile geometry of the gemm microkernel. Identical at every
/// level: the packed-panel format and tile boundaries are shape-only, so
/// the blocked gemm driver never needs to know which table is active.
inline constexpr std::size_t kMicroRows = 4;
inline constexpr std::size_t kMicroCols = 8;

/// Innermost-loop kernels over raw arrays. All pointers must be valid for
/// the stated extents; input and output ranges must not alias.
struct KernelTable {
  SimdLevel level;

  /// sum_i a[i] * b[i].
  double (*dot)(const double* a, const double* b, std::size_t n);

  /// y[i] += alpha * x[i].
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);

  /// out[i] = a[i] * b[i] (diag-scaled row of outer_gram_weighted).
  void (*mul)(const double* a, const double* b, double* out, std::size_t n);

  /// acc[r * kMicroCols + c] += sum_p ap[p*kMicroRows + r] *
  /// bp[p*kMicroCols + c] over kc packed p-steps. `ap`/`bp` are the
  /// p-major zero-padded panels the gemm driver packs; `acc` is a
  /// kMicroRows x kMicroCols row-major tile.
  void (*micro_4x8)(const double* ap, const double* bp, std::size_t kc,
                    double* acc);

  /// Lane-parallel orthonormal Hermite recurrence: out[d * ldo + p] =
  /// Hhat_d(x[p]) for d = 0..max_degree and p = 0..n-1 (ldo >= n). Runs
  /// the three-term recurrence across 4/8 points at once at the vector
  /// levels; every point's value sequence depends only on max_degree, not
  /// on where it falls relative to the lane width (short tails are padded
  /// through the full vector path).
  void (*hermite_all)(unsigned max_degree, const double* x, std::size_t n,
                      double* out, std::size_t ldo);
};

/// "scalar" / "avx2" / "avx512".
const char* level_name(SimdLevel level);

/// Parse a level name (the BMF_SIMD_LEVEL grammar). Returns false and
/// leaves `out` untouched on unknown text.
bool parse_level(const std::string& text, SimdLevel& out);

/// True if this binary contains code for `level` (the per-file ISA flags
/// were available at build time).
bool level_compiled(SimdLevel level);

/// True if `level` is compiled in AND the running CPU supports it. The
/// check itself never executes wide instructions, so it is safe on any
/// host.
bool level_available(SimdLevel level);

/// Best available level on this host (what dispatch picks without an
/// override). Always at least kScalar.
SimdLevel detected_level();

/// Table for an explicit level; throws std::invalid_argument if the level
/// is not available (tests should gate on level_available first).
const KernelTable& table_for(SimdLevel level);

/// The process-wide active table. Resolved once on first use: detected
/// level, unless BMF_SIMD_LEVEL names an available level to pin instead.
/// An unknown or unavailable BMF_SIMD_LEVEL value is reported on stderr
/// and ignored — the binary must keep running (never SIGILL) on hosts
/// without the requested ISA.
const KernelTable& active();

/// How the active table was chosen — the dispatch-reporting API.
struct DispatchInfo {
  SimdLevel active;        // level of the table active() returns
  SimdLevel detected;      // best available level on this host
  bool env_override;       // BMF_SIMD_LEVEL was set and honored
  bool env_ignored;        // BMF_SIMD_LEVEL was set but unknown/unavailable
  std::string env_value;   // raw BMF_SIMD_LEVEL text ("" if unset)
};
DispatchInfo dispatch_info();

/// Test hook: swap the active table (returns false if `level` is
/// unavailable). Call only from single-threaded test setup — the swap is
/// unsynchronized by design so the hot path pays no atomic load.
bool force_active_level(SimdLevel level);

}  // namespace bmf::linalg::kernels
