// Pluggable FP arithmetic backend: softfloat (the reference) or the host
// FPU ("native").
//
// softfloat.hpp documents that x86-64 SSE2 / AArch64 doubles are IEEE-754
// binary64 round-to-nearest-even and therefore bit-identical to the modeled
// cores for every finite computation. The native backend exploits that: it
// computes add/mul with host doubles, while the special cases whose encoding
// is architecture-dependent (NaN payload propagation, the default NaN of
// invalid operations) are pre-filtered in software to mirror softfloat's
// preamble exactly. The result is bit-identical arithmetic at native speed —
// and because engine timing never depends on operand values, cycle counts
// are unchanged too.
//
// "Bit-identical" is not assumed, it is verified: backend selection runs a
// startup conformance self-test (a hard-case vector covering subnormal
// rounding, sticky-bit ties, signed zeros, NaN payload quieting and
// overflow-to-inf, plus a seeded randomized cross-check against softfloat).
// A host that fails — x87 excess precision, FTZ/DAZ set, non-RNE rounding —
// silently falls back to softfloat. Selection is overridable with
//
//   XDBLAS_FP_BACKEND=auto    conformance-gated native (the default)
//   XDBLAS_FP_BACKEND=native  native (still conformance-gated)
//   XDBLAS_FP_BACKEND=soft    force softfloat
//
// and surfaced as the fp.backend.* telemetry gauges (see host::Runtime).
// The differential fuzz harness enforces equivalence end-to-end: every op
// kind replays bit-identically (values AND cycle counts) under both
// backends.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "fp/softfloat.hpp"

namespace xd::fp {

enum class BackendKind { Soft, Native };

inline constexpr std::string_view backend_name(BackendKind k) {
  return k == BackendKind::Soft ? "soft" : "native";
}

/// Widest adder tree Backend::mac_groups folds.
inline constexpr std::size_t kMaxMacLanes = 64;

/// Resolved arithmetic dispatch table. Engines fetch the active table once
/// per run and call through it; pipelined units capture the ops at
/// construction (so a unit's arithmetic is fixed for its lifetime).
struct Backend {
  using Op = u64 (*)(u64, u64);
  using MulN = void (*)(const u64*, const u64*, u64*, std::size_t);
  using FoldN = u64 (*)(u64*, std::size_t);
  using GemmRows = void (*)(const double*, const double*, double*, std::size_t,
                            std::size_t);
  using MacGroups = void (*)(const double*, const double*, u64*, std::size_t,
                             std::size_t);

  Op add = &fp::add;
  Op mul = &fp::mul;
  /// Batched elementwise product for the lane loops: out[i] = mul(a[i], b[i]).
  MulN mul_n = nullptr;
  /// In-place pairwise adder-tree fold over `k` (power of two) scratch words:
  /// each level adds adjacent pairs; returns the root. One indirect call per
  /// group instead of k-1 — the adds inline inside the backend.
  FoldN fold_n = nullptr;
  /// Row-major GEMM panel: c (rows x n) = a (rows x n) . b (n x n). Every C
  /// element starts from +0 and adds its products in ascending inner order,
  /// each add as add(acc, product), so the bits match the scalar add/mul
  /// chain. That is the PE array's order of the products, not of the
  /// operands: the PE adds (product, acc), which differs only in which NaN
  /// payload survives. The native kernel keeps 4 x 8 tiles of C in
  /// registers (tail rows and columns take the scalar loop) and redoes any
  /// row with a non-finite output on native_add / native_mul. c must not
  /// overlap a or b.
  GemmRows gemm_rows = nullptr;
  /// The adder-tree input stream of one vector pair: out[g] (g <
  /// ceil(n / k)) is the k-wide pairwise tree fold of a[i] * b[i] over group
  /// g, tail lanes padded with +0 products; k == 1 passes the products
  /// through; k is 1 or a power of two <= kMaxMacLanes. Bit-identical to
  /// mul_n + fold_n per group: schedule replay (sim/schedule.hpp) stages
  /// each chunk of sets' reduction-circuit input with it, one call per set.
  /// The native kernel works on four groups at a time, each folded in its
  /// own pairwise order, and redoes any non-finite group on the scalar
  /// native_add / native_mul chain.
  MacGroups mac_groups = nullptr;
  BackendKind kind = BackendKind::Soft;
};

// ---- native-FPU implementations -------------------------------------------
// NaN and infinity inputs are handled in software (mirroring softfloat's
// preamble), so the host FPU only ever sees finite operands — the cases
// where IEEE-754 mandates one bit pattern on every conforming host.
u64 native_add(u64 a, u64 b);
u64 native_mul(u64 a, u64 b);

/// One instruction-set build of the native gemm_rows kernel.
struct GemmRowsVariant {
  std::string_view isa;  ///< "avx2" or "baseline" (the compiler's target)
  Backend::GemmRows gemm_rows = nullptr;
};

/// The native gemm_rows builds this host can run, preferred first;
/// native_backend() uses the first. Every one is bit-identical to the soft
/// kernel.
std::vector<GemmRowsVariant> native_gemm_rows_variants();

/// The two canonical tables.
const Backend& soft_backend();
const Backend& native_backend();

// ---- conformance self-test -------------------------------------------------

struct ConformanceReport {
  bool passed = false;
  u64 cases = 0;              ///< checks run (hard vector + randomized)
  std::string first_failure;  ///< empty when passed
};

/// Verify `candidate` against softfloat: the hard-case vector first, then
/// `random_cases` seeded random bit patterns through both add and mul.
/// Deterministic for a fixed seed.
ConformanceReport run_conformance(const Backend& candidate,
                                  u64 random_cases = 4096, u64 seed = 2005);

// ---- selection -------------------------------------------------------------

struct BackendSelection {
  const Backend* backend = nullptr;
  std::string requested;          ///< "auto" / "native" / "soft"
  ConformanceReport conformance;  ///< cases == 0 when soft was requested
  bool fell_back = false;         ///< native wanted but conformance failed
};

/// Pure resolution for a requested mode ("auto", "native", "soft"); throws
/// ConfigError on anything else. No process state involved.
BackendSelection resolve_backend(std::string_view requested);

/// The process-wide selection, resolved once from XDBLAS_FP_BACKEND
/// (unset/empty means "auto") on first use.
const BackendSelection& backend_selection();

/// The dispatch table new engines/units pick up (the process selection,
/// unless a ScopedBackend override is live).
const Backend& active_backend();

/// Testing hook: force a backend for this object's lifetime and restore the
/// previous one on destruction. Swapping is atomic, but overrides must not
/// race with concurrently *starting* runs that expect a particular backend.
class ScopedBackend {
 public:
  explicit ScopedBackend(BackendKind kind);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const Backend* prev_;
};

}  // namespace xd::fp
