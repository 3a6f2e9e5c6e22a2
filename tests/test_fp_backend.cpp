// Backend-selection tests: the conformance gate does its job (native passes
// on an IEEE-754 RNE host and a deliberately broken backend is rejected),
// the XDBLAS_FP_BACKEND modes resolve as documented, the batched mul_n /
// fold_n / gemm_rows entry points agree bitwise with softfloat on
// adversarial operands, and the regression corpus replays clean under BOTH
// backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/ring_fifo.hpp"
#include "fp/backend.hpp"
#include "fp/fpu.hpp"
#include "fp/softfloat.hpp"
#include "host/plan.hpp"
#include "testing/case.hpp"
#include "testing/fuzz.hpp"
#include "testing/oracle.hpp"

using namespace xd;
using fp::Backend;
using fp::BackendKind;

#ifndef XD_CORPUS_FILE
#define XD_CORPUS_FILE "tests/corpus/regressions.fz"
#endif

namespace {

/// True on every host this project supports in CI (x86-64 SSE2 / AArch64).
/// If this ever fails, the suite should say so loudly rather than silently
/// skip the native coverage.
bool native_ok() {
  static const bool ok = fp::run_conformance(fp::native_backend()).passed;
  return ok;
}

}  // namespace

TEST(Conformance, NativePassesOnThisHost) {
  const auto rep = fp::run_conformance(fp::native_backend());
  EXPECT_TRUE(rep.passed) << rep.first_failure;
  // Hard-case vector plus the randomized cross-check actually ran.
  EXPECT_GT(rep.cases, 4096u);
  EXPECT_TRUE(rep.first_failure.empty());
  // So does every gemm_rows build this host can run, chosen or not.
  const auto variants = fp::native_gemm_rows_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front().gemm_rows, fp::native_backend().gemm_rows);
  for (const auto& v : variants) {
    Backend be = fp::native_backend();
    be.gemm_rows = v.gemm_rows;
    const auto vrep = fp::run_conformance(be);
    EXPECT_TRUE(vrep.passed) << v.isa << ": " << vrep.first_failure;
  }
}

TEST(Conformance, SoftBackendTriviallyConforms) {
  const auto rep = fp::run_conformance(fp::soft_backend(), 256);
  EXPECT_TRUE(rep.passed) << rep.first_failure;
}

namespace {

// A backend that is subtly wrong: correct except that it flushes subnormal
// results to zero (the classic FTZ failure mode the gate exists to catch).
u64 ftz_add(u64 a, u64 b) {
  const u64 r = fp::add(a, b);
  return fp::is_subnormal(r) ? (r & fp::kSignMask) : r;
}

void ftz_mul_n(const u64* a, const u64* b, u64* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fp::mul(a[i], b[i]);
}

u64 ftz_fold_n(u64* scratch, std::size_t k) {
  for (std::size_t width = k; width > 1; width /= 2) {
    for (std::size_t i = 0; i < width / 2; ++i) {
      scratch[i] = ftz_add(scratch[2 * i], scratch[2 * i + 1]);
    }
  }
  return scratch[0];
}

// A backend whose fold is right at every level but wrong in its wiring:
// it folds first-half-against-second-half instead of adjacent pairs. Every
// individual add is IEEE-correct, so only the fold_n cross-check can see it.
u64 strided_fold_n(u64* scratch, std::size_t k) {
  for (std::size_t width = k; width > 1; width /= 2) {
    for (std::size_t i = 0; i < width / 2; ++i) {
      scratch[i] = fp::add(scratch[i], scratch[i + width / 2]);
    }
  }
  return scratch[0];
}

// GEMM panel kernels that are wrong only in their order of operations: one
// adds each element's products in descending inner order, the other fuses
// every multiply-add into one rounding. Every scalar add and mul stays
// IEEE-correct, so only the gemm_rows cross-check can see them.
void descending_gemm_rows(const double* a, const double* b, double* c,
                          std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      u64 acc = fp::kPosZero;
      for (std::size_t k = n; k-- > 0;) {
        acc = fp::add(acc, fp::mul(fp::to_bits(a[r * n + k]),
                                   fp::to_bits(b[k * n + j])));
      }
      c[r * n + j] = fp::from_bits(acc);
    }
  }
}

void fused_gemm_rows(const double* a, const double* b, double* c,
                     std::size_t rows, std::size_t n) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        acc = std::fma(a[r * n + k], b[k * n + j], acc);
      }
      c[r * n + j] = acc;
    }
  }
}

// Adder-tree stream kernels wrong only in their padding or their tree:
// one pads tail lanes with -0 products, the other folds the lanes left to
// right. Every scalar add and mul stays IEEE-correct.
template <bool NegZeroPad>
void miswired_mac_groups(const double* a, const double* b, u64* out,
                         std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < n; i += k) {
    u64 p[fp::kMaxMacLanes] = {};
    const std::size_t lanes = std::min(k, n - i);
    for (std::size_t j = 0; j < k; ++j) {
      p[j] = j < lanes ? fp::mul(fp::to_bits(a[i + j]), fp::to_bits(b[i + j]))
                       : (NegZeroPad ? fp::kNegZero : fp::kPosZero);
    }
    if (NegZeroPad) {
      *out++ = fp::soft_backend().fold_n(p, k);
    } else {
      u64 acc = p[0];
      for (std::size_t j = 1; j < k; ++j) acc = fp::add(acc, p[j]);
      *out++ = acc;
    }
  }
}

}  // namespace

TEST(Conformance, MiswiredMacGroupsIsRejected) {
  for (const Backend::MacGroups kernel :
       {&miswired_mac_groups<true>, &miswired_mac_groups<false>}) {
    Backend bad = fp::soft_backend();
    bad.mac_groups = kernel;
    const auto rep = fp::run_conformance(bad);
    EXPECT_FALSE(rep.passed);
    EXPECT_NE(rep.first_failure.find("mac_groups"), std::string::npos)
        << rep.first_failure;
  }
}

TEST(MacGroups, MatchesMulNAndFoldNOnExtremeOperands) {
  // The simulated datapath per group: mul_n over the lanes, +0 in the tail
  // lanes, fold_n over k. Both backends' mac_groups must give its bits, on
  // Extreme-pool operands (every NaN payload and infinity sign) and on
  // uniform operands salted with them.
  Rng rng(2830);
  for (const Backend* be : {&fp::soft_backend(), &fp::native_backend()}) {
    for (std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      for (std::size_t n : {1u, 3u, 16u, 37u, 130u}) {
        for (int trial = 0; trial < 4; ++trial) {
          std::vector<double> a(n), b(n);
          for (std::size_t i = 0; i < n; ++i) {
            const bool extreme = trial % 2 == 0 || rng.uniform_int(0, 15) == 0;
            a[i] = extreme ? xd::testing::draw_value(rng, xd::testing::ValueMode::Extreme)
                           : rng.uniform(-1.0, 1.0);
            b[i] = rng.uniform_int(0, 7) == 0
                       ? xd::testing::draw_value(rng, xd::testing::ValueMode::Extreme)
                       : rng.uniform(-1e3, 1e3);
          }
          const std::size_t groups = (n + k - 1) / k;
          std::vector<u64> got(groups);
          be->mac_groups(a.data(), b.data(), got.data(), n, k);
          for (std::size_t g = 0; g < groups; ++g) {
            u64 ab[64] = {}, bb[64] = {}, p[64] = {};
            const std::size_t lanes = std::min(k, n - g * k);
            std::memcpy(ab, &a[g * k], lanes * sizeof(double));
            std::memcpy(bb, &b[g * k], lanes * sizeof(double));
            be->mul_n(ab, bb, p, lanes);
            std::fill(p + lanes, p + k, fp::kPosZero);
            const u64 want = k == 1 ? p[0] : be->fold_n(p, k);
            ASSERT_EQ(got[g], want) << fp::backend_name(be->kind) << " k=" << k
                                    << " n=" << n << " trial " << trial
                                    << " group " << g;
          }
        }
      }
    }
  }
}

TEST(MacGroups, InterleavedNativeKernelMatchesTheScalarChain) {
  // The native kernel folds several groups per iteration, then the groups
  // left over, then the padded tail group; each group falls back to the
  // scalar chain on its own. Against softfloat's chain (its mac_groups) for
  // every lane count, n never a multiple of the interleaved stride: whole
  // Extreme-pool operands (signed zeros, infinities, subnormals, NaN
  // payloads), uniform operands salted with them, and one special operand
  // among finite ones.
  Rng rng(2831);
  const auto extreme = [&rng] {
    return xd::testing::draw_value(rng, xd::testing::ValueMode::Extreme);
  };
  for (std::size_t k = 1; k <= fp::kMaxMacLanes; k *= 2) {
    for (const std::size_t n : {k + 1, 4 * k - 1, 4 * k + 1, 6 * k + 3, 10 * k - 1,
                                13 * k + k / 2 + 1}) {
      ASSERT_NE(n % (4 * k), 0u);
      for (int trial = 0; trial < 3; ++trial) {
        std::vector<double> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
          const bool salted = trial == 0 || (trial == 1 && rng.uniform_int(0, 15) == 0);
          a[i] = salted ? extreme() : rng.uniform(-1.0, 1.0);
          b[i] = trial == 0 ? extreme() : rng.uniform(-1e3, 1e3);
        }
        if (trial == 2) a[rng.uniform_int(0, n - 1)] = extreme();
        const std::size_t groups = (n + k - 1) / k;
        std::vector<u64> want(groups), got(groups);
        fp::soft_backend().mac_groups(a.data(), b.data(), want.data(), n, k);
        fp::native_backend().mac_groups(a.data(), b.data(), got.data(), n, k);
        for (std::size_t g = 0; g < groups; ++g) {
          ASSERT_EQ(got[g], want[g]) << "k=" << k << " n=" << n << " trial "
                                     << trial << " group " << g;
        }
      }
    }
  }
}

TEST(Conformance, FlushToZeroBackendIsRejected) {
  Backend bad = fp::soft_backend();
  bad.add = &ftz_add;
  bad.mul_n = &ftz_mul_n;
  bad.fold_n = &ftz_fold_n;
  const auto rep = fp::run_conformance(bad);
  EXPECT_FALSE(rep.passed);
  EXPECT_FALSE(rep.first_failure.empty());
}

TEST(Conformance, MiswiredFoldIsRejected) {
  Backend bad = fp::soft_backend();
  bad.fold_n = &strided_fold_n;
  const auto rep = fp::run_conformance(bad);
  EXPECT_FALSE(rep.passed);
  EXPECT_NE(rep.first_failure.find("fold_n"), std::string::npos)
      << rep.first_failure;
}

TEST(Conformance, MiswiredGemmRowsIsRejected) {
  for (const Backend::GemmRows kernel : {&descending_gemm_rows, &fused_gemm_rows}) {
    Backend bad = fp::soft_backend();
    bad.gemm_rows = kernel;
    const auto rep = fp::run_conformance(bad);
    EXPECT_FALSE(rep.passed);
    EXPECT_NE(rep.first_failure.find("gemm_rows"), std::string::npos)
        << rep.first_failure;
  }
}

TEST(Selection, SoftModeForcesSoftfloat) {
  const auto sel = fp::resolve_backend("soft");
  EXPECT_EQ(sel.backend->kind, BackendKind::Soft);
  EXPECT_FALSE(sel.fell_back);
  EXPECT_EQ(sel.conformance.cases, 0u);  // nothing to verify
}

TEST(Selection, AutoAndNativeAreConformanceGated) {
  for (const char* mode : {"auto", "native"}) {
    const auto sel = fp::resolve_backend(mode);
    ASSERT_NE(sel.backend, nullptr);
    if (native_ok()) {
      EXPECT_EQ(sel.backend->kind, BackendKind::Native) << mode;
      EXPECT_FALSE(sel.fell_back) << mode;
    } else {
      EXPECT_EQ(sel.backend->kind, BackendKind::Soft) << mode;
      EXPECT_TRUE(sel.fell_back) << mode;
    }
    EXPECT_GT(sel.conformance.cases, 0u) << mode;
  }
}

TEST(Selection, UnknownModeThrows) {
  EXPECT_THROW(fp::resolve_backend("fast"), ConfigError);
  EXPECT_THROW(fp::resolve_backend(""), ConfigError);
}

TEST(Selection, ScopedBackendSwapsAndRestores) {
  const BackendKind before = fp::active_backend().kind;
  {
    fp::ScopedBackend soft(BackendKind::Soft);
    EXPECT_EQ(fp::active_backend().kind, BackendKind::Soft);
    {
      fp::ScopedBackend native(BackendKind::Native);
      EXPECT_EQ(fp::active_backend().kind, BackendKind::Native);
    }
    EXPECT_EQ(fp::active_backend().kind, BackendKind::Soft);
  }
  EXPECT_EQ(fp::active_backend().kind, before);
}

TEST(PlanKey, DistinguishesBackends) {
  host::OpDesc desc;
  desc.kind = host::OpKind::Dot;
  desc.cols = 8;
  host::PlanKey soft_key, native_key;
  {
    fp::ScopedBackend soft(BackendKind::Soft);
    soft_key = host::PlanKey::from(desc);
  }
  {
    fp::ScopedBackend native(BackendKind::Native);
    native_key = host::PlanKey::from(desc);
  }
  EXPECT_FALSE(soft_key == native_key);
  EXPECT_NE(host::PlanKeyHash{}(soft_key), host::PlanKeyHash{}(native_key));
}

// ---- batched entry points vs softfloat -------------------------------------

namespace {

u64 mix(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Adversarial operand stream: raw patterns, subnormals, near-overflow
/// magnitudes, NaNs/infs, signed zeros.
u64 adversarial(u64 i) {
  const u64 raw = mix(i);
  switch (i % 6) {
    case 0: return raw;
    case 1: return raw & (fp::kSignMask | fp::kFracMask);           // subnormal
    case 2: return (raw & fp::kSignMask) | fp::kPosInf;             // inf
    case 3: return (raw & (fp::kSignMask | fp::kFracMask)) | fp::kExpMask;  // NaN
    case 4: return (raw & (fp::kSignMask | fp::kFracMask)) |
                   (u64{0x7FD} << fp::kFracBits);                   // huge
    default: return raw & fp::kSignMask;                            // +/- 0
  }
}

}  // namespace

TEST(NativeBatched, MulNMatchesSoftfloatOnAdversarialLanes) {
  const Backend& native = fp::native_backend();
  for (std::size_t n : {1u, 3u, 8u, 17u}) {
    std::vector<u64> a(n), b(n), out(n);
    for (u64 trial = 0; trial < 512; ++trial) {
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = adversarial(trial * 131 + i);
        b[i] = adversarial(mix(trial) + 17 * i);
      }
      native.mul_n(a.data(), b.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], fp::mul(a[i], b[i]))
            << "lane " << i << " of " << n << ", trial " << trial;
      }
    }
  }
}

TEST(NativeBatched, FoldNMatchesSoftfloatOnAdversarialTrees) {
  const Backend& native = fp::native_backend();
  for (std::size_t k : {2u, 4u, 8u, 16u}) {
    std::vector<u64> nat(k), soft(k);
    for (u64 trial = 0; trial < 512; ++trial) {
      for (std::size_t i = 0; i < k; ++i) {
        nat[i] = soft[i] = adversarial(trial * 61 + 7 * i);
      }
      const u64 have = native.fold_n(nat.data(), k);
      for (std::size_t width = k; width > 1; width /= 2) {
        for (std::size_t i = 0; i < width / 2; ++i) {
          soft[i] = fp::add(soft[2 * i], soft[2 * i + 1]);
        }
      }
      EXPECT_EQ(have, soft[0]) << "k=" << k << ", trial " << trial;
    }
  }
}

TEST(NativeBatched, FoldNCatchesOppositeInfinityCollision) {
  // Finite inputs whose partial sums overflow to +inf and -inf and then
  // meet: the fast-path redo must kick in and reproduce softfloat's default
  // NaN, not the host's.
  const u64 big = fp::to_bits(1.7e308);
  const u64 neg_big = fp::to_bits(-1.7e308);
  std::vector<u64> in{big, big, neg_big, neg_big};
  std::vector<u64> ref = in;
  const u64 have = fp::native_backend().fold_n(in.data(), 4);
  const u64 want = fp::add(fp::add(ref[0], ref[1]), fp::add(ref[2], ref[3]));
  EXPECT_EQ(have, want);
}

// ---- GEMM panel kernel vs the scalar chain ---------------------------------

namespace {

/// The fuzz oracle's naive softfloat loop, one column of C at a time: the
/// order the engines promise, written independently of either kernel.
std::vector<u64> scalar_gemm(const std::vector<double>& a,
                             const std::vector<double>& b, std::size_t rows,
                             std::size_t n) {
  std::vector<u64> c(rows * n);
  std::vector<double> bcol(n);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t k = 0; k < n; ++k) bcol[k] = b[k * n + j];
    const auto col = xd::testing::oracle_gemv(a, rows, n, bcol).values;
    for (std::size_t r = 0; r < rows; ++r) c[r * n + j] = fp::to_bits(col[r]);
  }
  return c;
}

/// Runs the soft kernel and every native build this host can run on one
/// panel and checks each element against scalar_gemm bit for bit; returns
/// the reference bits.
std::vector<u64> expect_gemm_rows_exact(const std::vector<double>& a,
                                        const std::vector<double>& b,
                                        std::size_t rows, std::size_t n,
                                        const std::string& what) {
  const std::vector<u64> want = scalar_gemm(a, b, rows, n);
  std::vector<fp::GemmRowsVariant> kernels = fp::native_gemm_rows_variants();
  kernels.push_back({"soft", fp::soft_backend().gemm_rows});
  for (const auto& k : kernels) {
    std::vector<double> c(rows * n, 1.0);  // the kernel must not read C
    k.gemm_rows(a.data(), b.data(), c.data(), rows, n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(fp::to_bits(c[i]), want[i])
          << k.isa << " " << what << ", element " << i;
    }
  }
  return want;
}

}  // namespace

TEST(GemmRows, MatchesTheScalarChainOnExtremePanels) {
  // Even trials draw every operand from the fuzzer's Extreme pool (zeros,
  // subnormals, 1e+-300, DBL_MIN, inf, NaN), so most outputs at larger n go
  // non-finite and take the recompute path. Odd trials salt uniform
  // operands with 1-in-16 Extreme values, so finite and non-finite outputs
  // sit side by side in one row. The native kernel tiles C 4 rows x 8
  // columns: rows {4, 8, 13} x n {8, 96} add whole tiles, tail rows and
  // tail columns.
  std::vector<std::pair<std::size_t, std::size_t>> panels;  // (n, rows)
  for (std::size_t n : {1u, 2u, 3u, 17u, 64u}) {
    for (std::size_t rows : {1u, 5u}) panels.emplace_back(n, rows);
  }
  for (std::size_t n : {8u, 96u}) {
    for (std::size_t rows : {4u, 8u, 13u}) panels.emplace_back(n, rows);
  }
  Rng rng(2027);
  for (const auto& [n, rows] : panels) {
    for (int trial = 0; trial < 8; ++trial) {
      auto draw = [&] {
        if (trial % 2 == 0 || rng.uniform_int(0, 15) == 0) {
          return xd::testing::draw_value(rng, xd::testing::ValueMode::Extreme);
        }
        return rng.uniform(-1.0, 1.0);
      };
      std::vector<double> a(rows * n), b(n * n);
      for (auto& v : a) v = draw();
      for (auto& v : b) v = draw();
      expect_gemm_rows_exact(a, b, rows, n,
                             cat("n=", n, " rows=", rows, " trial ", trial));
    }
  }
}

TEST(GemmRows, HandBuiltNonFiniteAndSubnormalRows) {
  const double big = 1.7e308;  // two of these overflow, one does not

  {  // The partial sum overflows to +inf, then meets a -inf product.
    const std::vector<double> a{big, big, -1e200};
    const std::vector<double> b{1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                                1e200, 1e200, 1e200};
    const auto c = expect_gemm_rows_exact(a, b, 1, 3, "inf - inf");
    EXPECT_EQ(c[0], fp::kDefaultNaN);
  }
  {  // NaNs in A and B meet in one product: A's payload wins, quieted.
    const u64 nan_a = 0x7FF4'0000'0000'BEEFull;  // signaling
    const u64 nan_b = 0xFFF8'0000'0000'CAFEull;
    const std::vector<double> a{1.0, fp::from_bits(nan_a)};
    const std::vector<double> b{2.0, 3.0, fp::from_bits(nan_b), 4.0};
    const auto c = expect_gemm_rows_exact(a, b, 1, 2, "NaN payloads");
    EXPECT_EQ(c[0], fp::quiet(nan_a));
    EXPECT_EQ(c[1], fp::quiet(nan_a));
  }
  {  // Every product is -0: the +0 start makes the sum +0.
    const std::vector<double> a{-1.0, 2.0, -0.0};
    const std::vector<double> b{0.0, 0.0, 0.0, -0.0, -0.0, -0.0,
                                5.0, 5.0, 5.0};
    const auto c = expect_gemm_rows_exact(a, b, 1, 3, "all -0 products");
    for (const u64 bits : c) EXPECT_EQ(bits, fp::kPosZero);
  }
  {  // Subnormal products, rounded, accumulating into a subnormal sum.
    const double dmin = 2.2250738585072014e-308;
    const std::vector<double> a{dmin, dmin, 5e-324, -dmin};
    std::vector<double> b(16);
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = 0.3 + 0.01 * double(i);
    const auto c = expect_gemm_rows_exact(a, b, 1, 4, "subnormal sums");
    for (const u64 bits : c) EXPECT_TRUE(fp::is_subnormal(bits));
  }
  {  // A finite row next to a row that holds an infinity.
    const double inf = fp::from_bits(fp::kPosInf);
    const std::vector<double> a{0.5, 0.25, inf, 1.0};
    const std::vector<double> b{1.0, 2.0, 3.0, 4.0};
    const auto c = expect_gemm_rows_exact(a, b, 2, 2, "mixed rows");
    EXPECT_TRUE(fp::is_finite(c[0]) && fp::is_finite(c[1]));
    EXPECT_TRUE(fp::is_inf(c[2]) && fp::is_inf(c[3]));
  }
}

// ---- engine-level equivalence ----------------------------------------------

TEST(BackendEquivalence, AdderTreeIdenticalUnderBothBackends) {
  if (!native_ok()) GTEST_SKIP() << "host FPU not conformant";
  Rng rng(91);
  const auto vals = rng.vector(64, -1e6, 1e6);
  std::vector<u64> results[2];
  const BackendKind kinds[] = {BackendKind::Soft, BackendKind::Native};
  for (int which = 0; which < 2; ++which) {
    fp::ScopedBackend sb(kinds[which]);
    fp::AdderTree tree(4, 3);
    std::vector<u64> group(4);
    std::size_t next = 0;
    for (u64 cycle = 0; cycle < 64; ++cycle) {
      if (next + 4 <= vals.size()) {
        for (std::size_t i = 0; i < 4; ++i) group[i] = fp::to_bits(vals[next + i]);
        tree.issue(group, cycle);
        next += 4;
      }
      tree.tick();
      if (auto r = tree.take_output()) {
        results[which].push_back(r->bits);
        results[which].push_back(r->tag);
      }
    }
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(BackendEquivalence, CorpusReplaysCleanUnderBothBackends) {
  for (const BackendKind kind : {BackendKind::Soft, BackendKind::Native}) {
    if (kind == BackendKind::Native && !native_ok()) continue;
    fp::ScopedBackend sb(kind);
    std::vector<std::string> lines;
    const auto sum = xd::testing::replay_corpus(
        XD_CORPUS_FILE, [&](const std::string& s) { lines.push_back(s); });
    EXPECT_GT(sum.cases_run, 0u);
    EXPECT_EQ(sum.failures, 0u)
        << "under " << fp::backend_name(kind) << ": "
        << (lines.empty() ? "" : lines.front());
  }
}

// ---- RingFifo --------------------------------------------------------------

TEST(RingFifo, WrapsAndPreservesFifoOrder) {
  RingFifo<int> q(3);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 3u);
  int next_in = 0, next_out = 0;
  // Push/pop around the ring several times so head wraps repeatedly.
  for (int round = 0; round < 5; ++round) {
    while (!q.full()) q.push(next_in++);
    EXPECT_EQ(q.size(), 3u);
    q.pop();  // leave a gap, then refill, forcing unaligned wraps
    ++next_out;
    q.push(next_in++);
    while (!q.empty()) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop();
    }
  }
  EXPECT_EQ(next_in, next_out);
}
