// Cross-module integration and property tests: consistency between engines
// that implement the same math, exact algebraic properties that survive
// IEEE-754 (power-of-two scaling, row permutation), timing-independence of
// the systolic GEMM numerics, and failure injection on the output path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "blas1/dot_engine.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "blas3/mm_array.hpp"
#include "common/random.hpp"
#include "host/blas_compat.hpp"
#include "host/context.hpp"
#include "host/reference.hpp"
#include "solver/jacobi.hpp"

using namespace xd;

namespace {

std::vector<double> scale(const std::vector<double>& v, double s) {
  auto r = v;
  for (auto& x : r) x *= s;
  return r;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine-consistency: the same product through different architectures.

TEST(Consistency, DotEqualsOneRowGemv) {
  Rng rng(1);
  const std::size_t n = 512;
  const auto u = rng.vector(n);
  const auto v = rng.vector(n);

  host::Runtime rt(host::ContextConfig{});
  const double d = rt.run(host::OpDesc::dot(u, v)).values[0];
  // One-row GEMV computes the same dot product (different engine).
  const auto y = rt.run(host::OpDesc::gemv(u, 1, n, v));
  EXPECT_NEAR(d, y.values[0], 1e-10 * n);
}

TEST(Consistency, GemmArrayVsCompatVsReference) {
  Rng rng(2);
  const std::size_t n = 32;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);

  host::Context ctx;
  const auto direct = ctx.runtime().run(host::OpDesc::gemm_array(a, b, n));
  std::vector<double> via_compat(n * n, 0.0);
  host::compat_dgemm(ctx, host::Transpose::No, host::Transpose::No, n, n, n,
                     1.0, a.data(), n, b.data(), n, 0.0, via_compat.data(), n);
  const auto ref = host::ref_gemm(a, b, n);
  EXPECT_LT(host::max_abs_diff(direct.values, ref), 1e-10 * n);
  EXPECT_LT(host::max_abs_diff(via_compat, ref), 1e-10 * n);
  // Both run the identical accumulation order: bit-equal to each other.
  EXPECT_EQ(direct.values, via_compat);
}

TEST(Consistency, JacobiDenseAndSparseAgree) {
  const std::size_t n = 64;
  Rng rng(3);
  auto dense = rng.matrix(n, n, -1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) off += std::fabs(dense[i * n + j]);
    }
    dense[i * n + i] = off + 1.0;
  }
  const auto sparse = blas2::CrsMatrix::from_dense(dense, n, n);
  const auto b = rng.vector(n);

  host::Context ctx;
  const auto rd = solver::jacobi_dense(ctx, dense, n, b);
  const auto rs = solver::jacobi_sparse(sparse, b);
  ASSERT_TRUE(rd.converged);
  ASSERT_TRUE(rs.converged);
  EXPECT_LT(host::max_abs_diff(rd.x, rs.x), 1e-9);
}

// ---------------------------------------------------------------------------
// Exact algebraic properties (power-of-two scaling is exact in IEEE-754).

TEST(ExactProperties, DotScalesByPowersOfTwoExactly) {
  Rng rng(4);
  const auto u = rng.vector(777);
  const auto v = rng.vector(777);
  host::Runtime rt(host::ContextConfig{});
  const double base = rt.run(host::OpDesc::dot(u, v)).values[0];
  EXPECT_EQ(rt.run(host::OpDesc::dot(scale(u, 4.0), v)).values[0], 4.0 * base);
  EXPECT_EQ(rt.run(host::OpDesc::dot(u, scale(v, 0.5))).values[0], 0.5 * base);
}

TEST(ExactProperties, GemvScalesByPowersOfTwoExactly) {
  Rng rng(5);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  host::Runtime rt(host::ContextConfig{});
  const auto y1 = rt.run(host::OpDesc::gemv(a, n, n, x)).values;
  const auto y2 = rt.run(host::OpDesc::gemv(a, n, n, scale(x, 2.0))).values;
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y2[i], 2.0 * y1[i]) << i;
}

TEST(ExactProperties, GemmRowPermutationIsExact) {
  // Swapping two rows of A swaps the same rows of C bit-for-bit (each C row
  // accumulates independently, in the same inner order).
  Rng rng(6);
  const std::size_t n = 16;
  auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  blas3::MmArrayConfig cfg;
  cfg.k = 4;
  cfg.m = 4;
  cfg.adder_stages = 4;
  cfg.mem_words_per_cycle = 8.0;
  blas3::MmArrayEngine engine(cfg);

  const auto c1 = engine.run(a, b, n).c;
  for (std::size_t j = 0; j < n; ++j) std::swap(a[2 * n + j], a[5 * n + j]);
  const auto c2 = engine.run(a, b, n).c;
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_EQ(c1[2 * n + j], c2[5 * n + j]);
    EXPECT_EQ(c1[5 * n + j], c2[2 * n + j]);
    EXPECT_EQ(c1[8 * n + j], c2[8 * n + j]);  // untouched rows identical
  }
}

TEST(ExactProperties, GemvNegationIsExact) {
  Rng rng(7);
  const std::size_t n = 96;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  host::Runtime rt(host::ContextConfig{});
  const auto y1 = rt.run(host::OpDesc::gemv(a, n, n, x)).values;
  const auto y2 = rt.run(host::OpDesc::gemv(a, n, n, scale(x, -1.0))).values;
  for (std::size_t i = 0; i < n; ++i) {
    // -0.0 == 0.0 compares equal, which is the right semantics here.
    EXPECT_EQ(y2[i], -y1[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// Timing independence / dependence of numerics.

TEST(Timing, SystolicGemmNumericsIndependentOfBandwidth) {
  // Stalls freeze the whole array, so the accumulation schedule (and hence
  // every rounding) is identical at any memory rate.
  Rng rng(8);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  std::vector<double> first;
  for (double rate : {8.0, 3.0, 1.0}) {
    blas3::MmArrayConfig cfg;
    cfg.k = 4;
    cfg.m = 4;
    cfg.adder_stages = 4;
    cfg.mem_words_per_cycle = rate;
    const auto c = blas3::MmArrayEngine(cfg).run(a, b, n).c;
    if (first.empty()) {
      first = c;
    } else {
      EXPECT_EQ(first, c) << "rate " << rate;
    }
  }
}

TEST(Timing, ReductionBasedGemvStaysWithinToleranceAcrossBandwidth) {
  // The reduction circuit's combination order depends on arrival timing, so
  // different rates may round differently — but always within the
  // reassociation tolerance.
  Rng rng(9);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  blas2::MxvTreeConfig c1, c2;
  c1.mem_words_per_cycle = 4.0;
  c2.mem_words_per_cycle = 1.5;
  const auto y1 = blas2::MxvTreeEngine(c1).run(a, n, n, x).y;
  const auto y2 = blas2::MxvTreeEngine(c2).run(a, n, n, x).y;
  EXPECT_LT(host::max_abs_diff(y1, y2), 1e-11 * n);
}

// ---------------------------------------------------------------------------
// Failure injection.

TEST(FailureInjection, TinyCStorageStallsButStaysCorrect) {
  Rng rng(10);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  blas3::MmArrayConfig cfg;
  cfg.k = 4;
  cfg.m = 4;
  cfg.adder_stages = 4;
  cfg.mem_words_per_cycle = 2.0;   // output port competes with input
  cfg.c_storage_words = 4;         // almost no C buffering
  blas3::MmArrayEngine engine(cfg);
  const auto out = engine.run(a, b, n);
  EXPECT_LT(host::max_abs_diff(out.c, host::ref_gemm(a, b, n)), 1e-10 * n);
  EXPECT_GT(out.report.stall_cycles, 0u);
}

TEST(FailureInjection, GemvColumnHazardDetectedWhenForced) {
  // Bypass the constructor check by a config whose rows make groups exactly
  // one short of the adder depth — must throw ConfigError before any
  // mis-simulation happens.
  blas2::MxvColConfig cfg;
  cfg.k = 4;
  cfg.adder_stages = 14;
  blas2::MxvColEngine engine(cfg);
  Rng rng(11);
  const std::size_t rows = 4 * 13;  // groups = 13 < 14
  const auto a = rng.matrix(rows, 32);
  EXPECT_THROW(engine.run(a, rows, 32, rng.vector(32)), ConfigError);
}

TEST(FailureInjection, SpmxvRejectsCorruptMatrix) {
  auto m = blas2::make_uniform_sparse(16, 16, 4, 12);
  m.col_idx[3] = 16;  // out of range
  blas2::SpmxvEngine engine{blas2::SpmxvConfig{}};
  Rng rng(13);
  EXPECT_THROW(engine.run(m, rng.vector(16)), ConfigError);
}

// ---------------------------------------------------------------------------
// Randomized shape sweep through the runtime.

class RandomShapes : public ::testing::TestWithParam<int> {};

TEST_P(RandomShapes, GemvAndDotAgainstReference) {
  Rng rng(100 + GetParam());
  host::Runtime rt(host::ContextConfig{});
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t rows = rng.uniform_int(1, 160);
    const std::size_t cols = rng.uniform_int(1, 160);
    const auto a = rng.matrix(rows, cols);
    const auto x = rng.vector(cols);
    const auto y = rt.run(host::OpDesc::gemv(a, rows, cols, x));
    const auto ref = host::ref_gemv(a, rows, cols, x);
    ASSERT_LT(host::max_abs_diff(y.values, ref), 1e-11 * cols)
        << rows << "x" << cols;

    const std::size_t n = rng.uniform_int(1, 3000);
    const auto u = rng.vector(n);
    const auto v = rng.vector(n);
    ASSERT_NEAR(rt.run(host::OpDesc::dot(u, v)).values[0], host::ref_dot(u, v),
                1e-11 * n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomShapes, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// IEEE special values flow through entire engines, not just the FP units.

TEST(SpecialValues, NanPropagatesThroughGemv) {
  Rng rng(20);
  const std::size_t n = 64;
  auto a = rng.matrix(n, n);
  a[5 * n + 7] = std::numeric_limits<double>::quiet_NaN();
  const auto x = rng.vector(n);
  host::Runtime rt(host::ContextConfig{});
  const auto out = rt.run(host::OpDesc::gemv(a, n, n, x));
  EXPECT_TRUE(std::isnan(out.values[5]));  // only the poisoned row
  EXPECT_FALSE(std::isnan(out.values[4]));
  EXPECT_FALSE(std::isnan(out.values[6]));
}

TEST(SpecialValues, InfPropagatesThroughGemmArray) {
  Rng rng(21);
  const std::size_t n = 16;
  auto a = rng.matrix(n, n);
  auto b = rng.matrix(n, n);
  a[3 * n + 0] = std::numeric_limits<double>::infinity();
  blas3::MmArrayConfig cfg;
  cfg.k = 4;
  cfg.m = 4;
  cfg.adder_stages = 4;
  cfg.mem_words_per_cycle = 8.0;
  const auto out = blas3::MmArrayEngine(cfg).run(a, b, n);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_FALSE(std::isfinite(out.c[3 * n + j])) << j;  // inf or nan
    EXPECT_TRUE(std::isfinite(out.c[2 * n + j])) << j;
  }
}

TEST(SpecialValues, NanThroughReductionBasedDot) {
  host::Runtime rt(host::ContextConfig{});
  std::vector<double> u(100, 1.0), v(100, 1.0);
  u[50] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(rt.run(host::OpDesc::dot(u, v)).values[0]));
}

// ---------------------------------------------------------------------------
// Bandwidth x C-storage sweep: the GEMM array stays correct in every corner.

class MmArrayCorners
    : public ::testing::TestWithParam<std::tuple<double, std::size_t>> {};

TEST_P(MmArrayCorners, CorrectUnderAnyPressure) {
  const auto [rate, cstore] = GetParam();
  Rng rng(31);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  blas3::MmArrayConfig cfg;
  cfg.k = 4;
  cfg.m = 4;
  cfg.adder_stages = 4;
  cfg.mem_words_per_cycle = rate;
  cfg.c_storage_words = cstore;
  const auto out = blas3::MmArrayEngine(cfg).run(a, b, n);
  EXPECT_LT(host::max_abs_diff(out.c, host::ref_gemm(a, b, n)), 1e-10 * n);
}

INSTANTIATE_TEST_SUITE_P(
    Corners, MmArrayCorners,
    ::testing::Combine(::testing::Values(0.5, 1.0, 3.0, 8.0),
                       ::testing::Values(2, 8, 16, 0)));

TEST(ExactProperties, GemmBilinearPowerOfTwoScaling) {
  // (2A)(4B) = 8(AB) exactly in IEEE-754 — through the full PE array.
  Rng rng(40);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  blas3::MmArrayConfig cfg;
  cfg.k = 4;
  cfg.m = 4;
  cfg.adder_stages = 4;
  cfg.mem_words_per_cycle = 8.0;
  blas3::MmArrayEngine engine(cfg);
  const auto base = engine.run(a, b, n).c;
  auto a2 = a, b4 = b;
  for (auto& x : a2) x *= 2.0;
  for (auto& x : b4) x *= 4.0;
  const auto scaled = engine.run(a2, b4, n).c;
  for (std::size_t i = 0; i < n * n; ++i) {
    ASSERT_EQ(scaled[i], 8.0 * base[i]) << i;
  }
}
