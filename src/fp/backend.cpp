#include "fp/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

namespace xd::fp {

// ---- native ops ------------------------------------------------------------
// The exp==0x7FF preamble mirrors fp::add / fp::mul exactly; after it the
// host FPU only sees finite operands, for which IEEE-754 RNE prescribes a
// unique bit pattern (including gradual underflow and overflow-to-inf).
// Keeping both operations out-of-line also guarantees the compiler can never
// contract a mul feeding an add into a fused multiply-add across the call
// boundary, which would skip the intermediate rounding softfloat performs.

u64 native_add(u64 a, u64 b) {
  if (((a & kExpMask) == kExpMask) | ((b & kExpMask) == kExpMask)) [[unlikely]] {
    if (is_nan(a)) return quiet(a);
    if (is_nan(b)) return quiet(b);
    if (is_inf(a)) {
      if (is_inf(b) && sign_of(a) != sign_of(b)) return kDefaultNaN;  // inf - inf
      return a;
    }
    return b;  // only b is infinite
  }
  return to_bits(from_bits(a) + from_bits(b));
}

u64 native_mul(u64 a, u64 b) {
  if (((a & kExpMask) == kExpMask) | ((b & kExpMask) == kExpMask)) [[unlikely]] {
    if (is_nan(a)) return quiet(a);
    if (is_nan(b)) return quiet(b);
    if (is_zero(a) || is_zero(b)) return kDefaultNaN;  // 0 * inf
    return ((a ^ b) & kSignMask) | kPosInf;
  }
  return to_bits(from_bits(a) * from_bits(b));
}

namespace {

void soft_mul_n(const u64* a, const u64* b, u64* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fp::mul(a[i], b[i]);
}

// exp == 0x7FF, i.e. the operand is NaN or infinite.
inline bool is_special(u64 x) { return (~x & kExpMask) == 0; }

void native_mul_n(const u64* a, const u64* b, u64* out, std::size_t n) {
  // One batched scan instead of two branches per lane: if no operand is
  // NaN/inf, finite x finite can only produce finite results or the RNE
  // overflow-to-inf — both bit-identical on any conforming host — so the
  // whole panel multiplies branch-free (and vectorizes).
  bool special = false;
  for (std::size_t i = 0; i < n; ++i) special |= is_special(a[i]) | is_special(b[i]);
  if (special) [[unlikely]] {
    for (std::size_t i = 0; i < n; ++i) out[i] = native_mul(a[i], b[i]);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = to_bits(from_bits(a[i]) * from_bits(b[i]));
  }
}

// Pairwise tree fold, adjacent pairs per level — the AdderTree wiring. Slot i
// is written only after slots 2i and 2i+1 were read, so it runs in place.
u64 soft_fold_n(u64* scratch, std::size_t k) {
  for (std::size_t width = k; width > 1; width /= 2) {
    for (std::size_t i = 0; i < width / 2; ++i) {
      scratch[i] = fp::add(scratch[2 * i], scratch[2 * i + 1]);
    }
  }
  return scratch[0];
}

u64 native_fold_careful(u64* scratch, std::size_t k) {
  for (std::size_t width = k; width > 1; width /= 2) {
    for (std::size_t i = 0; i < width / 2; ++i) {
      scratch[i] = native_add(scratch[2 * i], scratch[2 * i + 1]);
    }
  }
  return scratch[0];
}

u64 native_fold_n(u64* scratch, std::size_t k) {
  // Fast path mirrors native_mul_n: scan the inputs once, then fold with
  // plain host adds. Unlike multiplication, two finite partial sums can
  // overflow to opposite infinities and meet at a later level (inf - inf),
  // where the host's default NaN need not match softfloat's — so the fast
  // fold also OR-tracks the exponent bits it produces and redoes the fold
  // through native_add (whose preamble handles inf/NaN exactly) from a saved
  // copy in that rare case.
  bool special = k > 64;
  for (std::size_t i = 0; i < k; ++i) special |= is_special(scratch[i]);
  if (special) [[unlikely]] {
    return native_fold_careful(scratch, k);
  }
  u64 orig[64];
  std::memcpy(orig, scratch, k * sizeof(u64));
  bool overflowed = false;
  for (std::size_t width = k; width > 1; width /= 2) {
    for (std::size_t i = 0; i < width / 2; ++i) {
      const u64 s = to_bits(from_bits(scratch[2 * i]) + from_bits(scratch[2 * i + 1]));
      scratch[i] = s;
      overflowed |= is_special(s);
    }
  }
  if (!overflowed) [[likely]] {
    return scratch[0];
  }
  std::memcpy(scratch, orig, k * sizeof(u64));
  return native_fold_careful(scratch, k);
}

// The scalar add/mul chain in (row, inner, col) order: the inner loop runs
// over a unit-stride row of B and a row of accumulators, yet each C element
// still sees its products in ascending inner order.
template <Backend::Op Add, Backend::Op Mul>
void chain_gemm_rows(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double* ar = a + r * n;
    double* cr = c + r * n;
    std::fill(cr, cr + n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const u64 aik = to_bits(ar[k]);
      const double* bk = b + k * n;
      for (std::size_t j = 0; j < n; ++j) {
        cr[j] = from_bits(Add(to_bits(cr[j]), Mul(aik, to_bits(bk[j]))));
      }
    }
  }
}

constexpr Backend::GemmRows soft_gemm_rows = &chain_gemm_rows<&fp::add, &fp::mul>;

// The host-double loop over C columns [j0, n) of rows [r0, r1), in the
// chain's (row, inner, col) order: the tiled kernel's tail rows and tail
// columns.
[[gnu::always_inline]] inline void host_gemm_cols(
    const double* a, const double* b, double* c, std::size_t r0,
    std::size_t r1, std::size_t j0, std::size_t n) {
  for (std::size_t r = r0; r < r1; ++r) {
    const double* __restrict ar = a + r * n;
    double* __restrict cr = c + r * n;
    std::fill(cr + j0, cr + n, 0.0);
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = ar[k];
      const double* __restrict bk = b + k * n;
      for (std::size_t j = j0; j < n; ++j) cr[j] += aik * bk[j];
    }
  }
}

/// Rows and columns of C one register tile holds.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

using Vec2 = double __attribute__((vector_size(16)));
using Vec4 = double __attribute__((vector_size(32)));

// C in kTileRows x kTileCols tiles held in registers while the tile's rows
// of A and a kTileCols-wide strip of B stream past. Each lane of a Vec
// accumulator is one C element: it starts at +0 and adds a[r][k] * b[k][j]
// for ascending k, every multiply and add rounding on its own — the chain's
// order, so the bits are the scalar loop's. The unroll pragmas keep the
// accumulators in registers.
template <typename Vec>
[[gnu::always_inline]] inline void host_gemm_tiles(const double* a,
                                                   const double* b, double* c,
                                                   std::size_t rows,
                                                   std::size_t n) {
  constexpr std::size_t lanes = sizeof(Vec) / sizeof(double);
  constexpr std::size_t vecs = kTileCols / lanes;
  const std::size_t tile_rows = rows - rows % kTileRows;
  const std::size_t tile_cols = n - n % kTileCols;
  for (std::size_t r = 0; r < tile_rows; r += kTileRows) {
    for (std::size_t j = 0; j < tile_cols; j += kTileCols) {
      Vec acc[kTileRows][vecs] = {};
      for (std::size_t k = 0; k < n; ++k) {
        Vec bk[vecs];
#pragma GCC unroll 8
        for (std::size_t v = 0; v < vecs; ++v) {
          std::memcpy(&bk[v], b + k * n + j + v * lanes, sizeof(Vec));
        }
#pragma GCC unroll 8
        for (std::size_t q = 0; q < kTileRows; ++q) {
          Vec aqk;
          for (std::size_t l = 0; l < lanes; ++l) aqk[l] = a[(r + q) * n + k];
#pragma GCC unroll 8
          for (std::size_t v = 0; v < vecs; ++v) acc[q][v] += aqk * bk[v];
        }
      }
#pragma GCC unroll 8
      for (std::size_t q = 0; q < kTileRows; ++q) {
#pragma GCC unroll 8
        for (std::size_t v = 0; v < vecs; ++v) {
          std::memcpy(c + (r + q) * n + j + v * lanes, &acc[q][v], sizeof(Vec));
        }
      }
    }
    host_gemm_cols(a, b, c, r, r + kTileRows, tile_cols, n);
  }
  host_gemm_cols(a, b, c, tile_rows, rows, 0, n);
}

// IEEE add and mul never turn inf or NaN back into a finite value, so a
// finite output had only finite products and partial sums, whose RNE
// results are bit-identical to softfloat. A row with any non-finite output
// is recomputed through native_add / native_mul, which reproduce
// softfloat's NaN payloads, its default NaN for inf - inf and 0 * inf, and
// its infinities.
void redo_nonfinite_rows(const double* a, const double* b, double* c,
                         std::size_t rows, std::size_t n) {
  const auto special = [](double x) { return is_special(to_bits(x)); };
  for (std::size_t r = 0; r < rows; ++r) {
    double* cr = c + r * n;
    if (std::any_of(cr, cr + n, special)) [[unlikely]] {
      chain_gemm_rows<&native_add, &native_mul>(a + r * n, b, cr, 1, n);
    }
  }
}

// Plain host doubles first (this file is built with -ffp-contract=off, so
// the multiply and the add each round), then the non-finite rows again.
void native_gemm_rows_baseline(const double* a, const double* b, double* c,
                               std::size_t rows, std::size_t n) {
  host_gemm_tiles<Vec2>(a, b, c, rows, n);
  redo_nonfinite_rows(a, b, c, rows, n);
}

#if defined(__x86_64__)
// The same source on 256-bit registers; AVX2 implies no FMA, and vmulpd /
// vaddpd round per lane exactly as their SSE2 forms do.
[[gnu::target("avx2")]] void native_gemm_rows_avx2(const double* a,
                                                   const double* b, double* c,
                                                   std::size_t rows,
                                                   std::size_t n) {
  host_gemm_tiles<Vec4>(a, b, c, rows, n);
  redo_nonfinite_rows(a, b, c, rows, n);
}
#endif

// The adder-tree input stream on the scalar add/mul chain: per group, the
// lane products (tail lanes +0, as the feeders pad them), then the pairwise
// fold of fold_n.
template <Backend::Op Add, Backend::Op Mul>
void chain_mac_groups(const double* a, const double* b, u64* out,
                      std::size_t n, std::size_t k) {
  u64 p[kMaxMacLanes];
  for (std::size_t i = 0; i < n; i += k) {
    const std::size_t lanes = std::min(k, n - i);
    for (std::size_t j = 0; j < lanes; ++j) {
      p[j] = Mul(to_bits(a[i + j]), to_bits(b[i + j]));
    }
    std::fill(p + lanes, p + k, kPosZero);
    for (std::size_t width = k; width > 1; width /= 2) {
      for (std::size_t j = 0; j < width / 2; ++j) {
        p[j] = Add(p[2 * j], p[2 * j + 1]);
      }
    }
    *out++ = p[0];
  }
}

constexpr Backend::MacGroups soft_mac_groups =
    &chain_mac_groups<&fp::add, &fp::mul>;

// One K-lane group on host doubles: the products, then the pairwise fold.
template <std::size_t K>
inline double host_group(const double* a, const double* b) {
  double p[K];
  for (std::size_t j = 0; j < K; ++j) p[j] = a[j] * b[j];
  for (std::size_t w = K; w > 1; w /= 2) {
    for (std::size_t j = 0; j < w / 2; ++j) p[j] = p[2 * j] + p[2 * j + 1];
  }
  return p[0];
}

/// Groups host_mac_groups computes per iteration.
constexpr std::size_t kMacInterleave = 4;

template <std::size_t K>
void host_mac_groups(const double* a, const double* b, u64* out,
                     std::size_t n) {
  // kMacInterleave independent groups per iteration, lane j of group q in
  // p[j][q]: the products and each fold level run across the groups side by
  // side, while every group keeps its own pairwise order.
  constexpr std::size_t G = kMacInterleave;
  const std::size_t full = n / K;
  std::size_t g = 0;
  for (; g + G <= full; g += G) {
    double p[K][G];
    for (std::size_t q = 0; q < G; ++q) {
      for (std::size_t j = 0; j < K; ++j) {
        p[j][q] = a[(g + q) * K + j] * b[(g + q) * K + j];
      }
    }
    for (std::size_t w = K; w > 1; w /= 2) {
      for (std::size_t j = 0; j < w / 2; ++j) {
        for (std::size_t q = 0; q < G; ++q) p[j][q] = p[2 * j][q] + p[2 * j + 1][q];
      }
    }
    for (std::size_t q = 0; q < G; ++q) out[g + q] = to_bits(p[0][q]);
  }
  for (; g < full; ++g) out[g] = to_bits(host_group<K>(a + g * K, b + g * K));
  if (const std::size_t tail = n % K) {
    // Zero operands in the idle lanes give the +0 products the feeders pad.
    double ta[K] = {}, tb[K] = {};
    std::copy(a + full * K, a + n, ta);
    std::copy(b + full * K, b + n, tb);
    out[full] = to_bits(host_group<K>(ta, tb));
  }
}

void native_mac_groups(const double* a, const double* b, u64* out,
                       std::size_t n, std::size_t k) {
  // Plain host doubles first, then the gemm_rows argument: NaN and inf never
  // turn back into finite values, so a finite group had only finite
  // products and partial sums, whose RNE results match softfloat. A NaN or
  // infinite input makes its group's result non-finite too, so checking the
  // results catches every group that needs native_add / native_mul.
  switch (k) {
    case 1: host_mac_groups<1>(a, b, out, n); break;
    case 2: host_mac_groups<2>(a, b, out, n); break;
    case 4: host_mac_groups<4>(a, b, out, n); break;
    case 8: host_mac_groups<8>(a, b, out, n); break;
    case 16: host_mac_groups<16>(a, b, out, n); break;
    case 32: host_mac_groups<32>(a, b, out, n); break;
    default: host_mac_groups<kMaxMacLanes>(a, b, out, n); break;
  }
  for (std::size_t i = 0; i < n; i += k, ++out) {
    if (is_special(*out)) [[unlikely]] {
      chain_mac_groups<&native_add, &native_mul>(a + i, b + i, out,
                                                 std::min(k, n - i), k);
    }
  }
}

}  // namespace

const Backend& soft_backend() {
  static const Backend be{&fp::add,     &fp::mul,       &soft_mul_n,
                          &soft_fold_n, soft_gemm_rows, soft_mac_groups,
                          BackendKind::Soft};
  return be;
}

std::vector<GemmRowsVariant> native_gemm_rows_variants() {
  std::vector<GemmRowsVariant> v;
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) v.push_back({"avx2", &native_gemm_rows_avx2});
#endif
  v.push_back({"baseline", &native_gemm_rows_baseline});
  return v;
}

const Backend& native_backend() {
  static const Backend be{&native_add,
                          &native_mul,
                          &native_mul_n,
                          &native_fold_n,
                          native_gemm_rows_variants().front().gemm_rows,
                          &native_mac_groups,
                          BackendKind::Native};
  return be;
}

// ---- conformance -----------------------------------------------------------

namespace {

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Bias a raw 64-bit pattern toward the interesting exponent bands: full
/// random patterns alone almost never land on subnormals, near-overflow
/// values, or operand pairs close enough to cancel.
u64 shape_pattern(u64 raw, unsigned mode) {
  switch (mode % 4) {
    case 0:
      return raw;  // anything, incl. NaN/inf encodings
    case 1:        // subnormal / tiny: exponent field 0..2
      return (raw & (kSignMask | kFracMask)) |
             (static_cast<u64>(raw >> 52 & 0x3) << kFracBits);
    case 2: {  // near overflow: exponent 0x7FC..0x7FF
      const u64 e = 0x7FC + (raw >> 52 & 0x3);
      return (raw & (kSignMask | kFracMask)) | (e << kFracBits);
    }
    default: {  // mid-range, narrow exponent spread (cancellation-prone adds)
      const u64 e = kBias - 2 + (raw >> 52 & 0x3);
      return (raw & (kSignMask | kFracMask)) | (e << kFracBits);
    }
  }
}

struct HardCase {
  const char* what;
  u64 a, b;
};

bool check_op(const Backend& be, bool is_add, u64 a, u64 b, const char* what,
              ConformanceReport& rep) {
  ++rep.cases;
  const u64 want = is_add ? fp::add(a, b) : fp::mul(a, b);
  const u64 got = is_add ? be.add(a, b) : be.mul(a, b);
  if (got == want) return true;
  if (rep.first_failure.empty()) {
    rep.first_failure =
        cat(is_add ? "add" : "mul", "(0x", std::hex, a, ", 0x", b, ") = 0x",
            got, ", softfloat says 0x", want, " [", what, "]");
  }
  return false;
}

}  // namespace

ConformanceReport run_conformance(const Backend& candidate, u64 random_cases,
                                  u64 seed) {
  ConformanceReport rep;
  bool ok = true;

  // Named constants for readability below.
  constexpr u64 kOne = 0x3FF0'0000'0000'0000ull;        // 1.0
  constexpr u64 kMinSub = 0x0000'0000'0000'0001ull;     // smallest subnormal
  constexpr u64 kMaxSub = 0x000F'FFFF'FFFF'FFFFull;     // largest subnormal
  constexpr u64 kMinNorm = 0x0010'0000'0000'0000ull;    // smallest normal
  constexpr u64 kMaxFinite = 0x7FEF'FFFF'FFFF'FFFFull;  // DBL_MAX
  constexpr u64 kHalf = 0x3FE0'0000'0000'0000ull;       // 0.5
  constexpr u64 kSNaN = 0x7FF0'0000'0000'0001ull;       // sNaN, payload 1
  constexpr u64 kSNaNPay = 0xFFF4'0000'0000'BEEFull;    // -sNaN, big payload
  constexpr u64 kUlp = 0x3CB0'0000'0000'0000ull;        // 2^-52
  constexpr u64 kHalfUlp = 0x3CA0'0000'0000'0000ull;    // 2^-53 (exact tie)
  constexpr u64 kHalfUlpSticky = 0x3CA0'0000'0000'0001ull;  // tie + sticky

  static const HardCase kAddCases[] = {
      {"round-to-even tie (down)", kOne, kHalfUlp},
      {"round-to-even tie (up)", kOne | 1, kHalfUlp},
      {"sticky bit breaks the tie", kOne, kHalfUlpSticky},
      {"one ulp", kOne, kUlp},
      {"subnormal + subnormal", kMinSub, kMinSub},
      {"subnormal carries into normal", kMaxSub, kMinSub},
      {"gradual underflow on cancellation", kMinNorm, kMinSub | kSignMask},
      {"exact cancellation -> +0", kOne, kOne | kSignMask},
      {"(+0) + (-0) = +0", kPosZero, kNegZero},
      {"(-0) + (-0) = -0", kNegZero, kNegZero},
      {"overflow to +inf", kMaxFinite, kMaxFinite},
      {"overflow to -inf", kMaxFinite | kSignMask, kMaxFinite | kSignMask},
      {"inf - inf -> default NaN", kPosInf, kNegInf},
      {"inf + finite", kPosInf, kOne},
      {"sNaN payload quieting (a)", kSNaN, kOne},
      {"sNaN payload quieting (b)", kOne, kSNaNPay},
      {"NaN precedence: a's payload wins", kSNaN, kSNaNPay},
      {"tiny + huge (full alignment shift)", kMinSub, kMaxFinite},
  };
  static const HardCase kMulCases[] = {
      {"exact power-of-two scale", kOne | 7, kHalf},
      {"significand tie with sticky", kOne | 1, kOne | 1},
      {"subnormal x subnormal -> rounded zero", kMinSub, kMinSub},
      {"subnormal result (gradual underflow)", kMinNorm, kHalf},
      {"subnormal input x normal", kMinSub, kOne | 3},
      {"underflow with sticky rounding", kMinNorm | 0x5555, kHalf | 1},
      {"overflow to inf", kMaxFinite, kMaxFinite},
      {"overflow to -inf", kMaxFinite | kSignMask, kMaxFinite},
      {"signed zero: (-0) * x", kNegZero, kOne | 9},
      {"signed zero: (-x) * (+0)", kOne | kSignMask, kPosZero},
      {"0 * inf -> default NaN", kPosZero, kPosInf},
      {"inf * finite keeps sign", kNegInf, kOne},
      {"sNaN payload quieting (a)", kSNaN, kOne},
      {"sNaN payload quieting (b)", kHalf, kSNaNPay},
      {"NaN precedence: a's payload wins", kSNaNPay, kSNaN},
  };

  for (const auto& c : kAddCases) {
    ok &= check_op(candidate, true, c.a, c.b, c.what, rep);
    ok &= check_op(candidate, true, c.b, c.a, c.what, rep);  // commuted
  }
  for (const auto& c : kMulCases) {
    ok &= check_op(candidate, false, c.a, c.b, c.what, rep);
    ok &= check_op(candidate, false, c.b, c.a, c.what, rep);
  }

  u64 s = seed ? seed : 1;
  for (u64 i = 0; i < random_cases; ++i) {
    const u64 r0 = splitmix64(s ^ (2 * i));
    const u64 r1 = splitmix64(s ^ (2 * i + 1));
    const u64 a = shape_pattern(r0, static_cast<unsigned>(r1 >> 60));
    const u64 b = shape_pattern(r1, static_cast<unsigned>(r0 >> 60));
    ok &= check_op(candidate, true, a, b, "randomized", rep);
    ok &= check_op(candidate, false, a, b, "randomized", rep);
  }

  // Batched tree fold: must match the softfloat fold level for level.
  if (candidate.fold_n) {
    for (u64 i = 0; i < 64; ++i) {
      const std::size_t k = std::size_t{2} << (i % 4);  // 2, 4, 8, 16
      u64 ref[16], got[16];
      for (std::size_t j = 0; j < k; ++j) {
        const u64 r = splitmix64(s ^ (0x10000 + 16 * i + j));
        ref[j] = got[j] = shape_pattern(r, static_cast<unsigned>(r >> 60));
      }
      ++rep.cases;
      const u64 want = soft_fold_n(ref, k);
      const u64 have = candidate.fold_n(got, k);
      if (want != have) {
        ok = false;
        if (rep.first_failure.empty()) {
          rep.first_failure = cat("fold_n(k=", k, ") = 0x", std::hex, have,
                                  ", softfloat says 0x", want);
        }
      }
    }
  }

  // GEMM panel kernel: must match the soft kernel bit for bit. Each 2 x 3
  // panel draws A and B from a pair of operand bands: mid-range pairs make a
  // reordered or FMA-fused kernel round differently; subnormal, near-overflow
  // and raw bands reach gradual underflow, inf - inf and NaN payloads. The
  // panels are few and small because every backend selection runs them.
  if (candidate.gemm_rows) {
    static constexpr unsigned kBands[][2] = {{3, 3}, {3, 3}, {1, 3}, {3, 1},
                                             {2, 3}, {2, 2}, {0, 0}, {0, 3}};
    constexpr std::size_t rows = 2, n = 3;
    for (u64 i = 0; i < std::size(kBands); ++i) {
      double a[rows * n], b[n * n], want[rows * n], have[rows * n];
      for (std::size_t j = 0; j < rows * n; ++j) {
        a[j] = from_bits(
            shape_pattern(splitmix64(s ^ (0x20000 + 64 * i + j)), kBands[i][0]));
      }
      for (std::size_t j = 0; j < n * n; ++j) {
        b[j] = from_bits(
            shape_pattern(splitmix64(s ^ (0x30000 + 64 * i + j)), kBands[i][1]));
      }
      soft_gemm_rows(a, b, want, rows, n);
      candidate.gemm_rows(a, b, have, rows, n);
      for (std::size_t j = 0; j < rows * n; ++j) {
        ++rep.cases;
        if (to_bits(want[j]) == to_bits(have[j])) continue;
        ok = false;
        if (rep.first_failure.empty()) {
          rep.first_failure =
              cat("gemm_rows(panel ", i, ")[", j, "] = 0x", std::hex,
                  to_bits(have[j]), ", softfloat says 0x", to_bits(want[j]));
        }
      }
    }
  }

  // Adder-tree input stream: must match the soft kernel bit for bit. The
  // cases cover every lane count the fast kernel specialises (and one it
  // does not), ragged tails, and the same operand bands as the GEMM panels,
  // plus one group of -0 products, whose +0 tail padding makes the sum +0.
  if (candidate.mac_groups) {
    const auto check = [&](const double* a, const double* b, std::size_t n,
                           std::size_t k) {
      u64 want[16], have[16];
      soft_mac_groups(a, b, want, n, k);
      candidate.mac_groups(a, b, have, n, k);
      for (std::size_t g = 0; g < (n + k - 1) / k; ++g) {
        ++rep.cases;
        if (want[g] == have[g]) continue;
        ok = false;
        if (rep.first_failure.empty()) {
          rep.first_failure = cat("mac_groups(n=", n, ", k=", k, ")[", g,
                                  "] = 0x", std::hex, have[g],
                                  ", softfloat says 0x", want[g]);
        }
      }
    };
    static constexpr struct {
      std::size_t n, k;
      unsigned band_a, band_b;
    } kCases[] = {{5, 1, 3, 3}, {7, 2, 3, 3}, {9, 4, 3, 3}, {11, 8, 3, 1},
                  {6, 4, 2, 2}, {8, 4, 0, 0}, {13, 16, 2, 3}, {3, 4, 1, 1}};
    for (u64 i = 0; i < std::size(kCases); ++i) {
      const auto& c = kCases[i];
      double a[16], b[16];
      for (std::size_t j = 0; j < c.n; ++j) {
        a[j] = from_bits(
            shape_pattern(splitmix64(s ^ (0x40000 + 64 * i + j)), c.band_a));
        b[j] = from_bits(
            shape_pattern(splitmix64(s ^ (0x50000 + 64 * i + j)), c.band_b));
      }
      check(a, b, c.n, c.k);
    }
    const double neg_a[] = {-0.0, 1.0, -2.0}, neg_b[] = {1.0, -0.0, 0.0};
    check(neg_a, neg_b, 3, 4);
  }

  rep.passed = ok;
  return rep;
}

// ---- selection -------------------------------------------------------------

namespace {

std::atomic<const Backend*>& active_ptr() {
  // Seeded lazily from backend_selection() via active_backend(); nullptr
  // means "not resolved yet".
  static std::atomic<const Backend*> ptr{nullptr};
  return ptr;
}

}  // namespace

BackendSelection resolve_backend(std::string_view requested) {
  BackendSelection sel;
  sel.requested = std::string(requested);
  if (requested == "soft") {
    sel.backend = &soft_backend();
    return sel;
  }
  require(requested == "auto" || requested == "native",
          cat("XDBLAS_FP_BACKEND must be auto, native or soft (got '",
              requested, "')"));
  sel.conformance = run_conformance(native_backend());
  if (sel.conformance.passed) {
    sel.backend = &native_backend();
  } else {
    // Even an explicit "native" falls back rather than failing the run: the
    // soft backend is always correct, and the fp.backend.* gauges (plus this
    // flag) make the downgrade observable.
    sel.backend = &soft_backend();
    sel.fell_back = true;
  }
  return sel;
}

const BackendSelection& backend_selection() {
  static const BackendSelection sel = [] {
    const char* env = std::getenv("XDBLAS_FP_BACKEND");
    return resolve_backend(env && *env ? env : "auto");
  }();
  return sel;
}

const Backend& active_backend() {
  const Backend* be = active_ptr().load(std::memory_order_acquire);
  if (!be) [[unlikely]] {
    be = backend_selection().backend;
    active_ptr().store(be, std::memory_order_release);
  }
  return *be;
}

ScopedBackend::ScopedBackend(BackendKind kind) {
  prev_ = &active_backend();  // also forces first-use resolution
  const Backend* next =
      kind == BackendKind::Native ? &native_backend() : &soft_backend();
  active_ptr().store(next, std::memory_order_release);
}

ScopedBackend::~ScopedBackend() {
  active_ptr().store(prev_, std::memory_order_release);
}

}  // namespace xd::fp
