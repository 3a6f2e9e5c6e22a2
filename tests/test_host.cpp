// Public-API tests: ops through a Context's runtime end-to-end, Table 3/4
// behaviour at test scale, placement (SRAM vs DRAM staging), the design
// helpers, and the reference BLAS.
#include <gtest/gtest.h>

#include <cmath>

#include "host/context.hpp"
#include "host/plan.hpp"
#include "host/reference.hpp"
#include "machine/area.hpp"
#include "common/random.hpp"

using namespace xd;
using host::Context;
using host::ContextConfig;
using host::GemvArch;
using host::OpDesc;
using host::Placement;

TEST(Reference, BlockedGemmMatchesNaive) {
  Rng rng(1);
  for (std::size_t n : {1u, 7u, 64u, 100u, 130u}) {
    const auto a = rng.matrix(n, n);
    const auto b = rng.matrix(n, n);
    const auto c1 = host::ref_gemm(a, b, n);
    const auto c2 = host::blocked_gemm(a, b, n, 32);
    EXPECT_LT(host::max_abs_diff(c1, c2), 1e-10 * static_cast<double>(n))
        << "n=" << n;
  }
}

TEST(Reference, DotAndGemv) {
  Rng rng(2);
  const auto u = rng.vector(100);
  const auto v = rng.vector(100);
  double expect = 0;
  for (int i = 0; i < 100; ++i) expect += u[i] * v[i];
  EXPECT_NEAR(host::ref_dot(u, v), expect, 1e-12);

  const auto a = rng.matrix(3, 2);
  const auto y = host::ref_gemv(a, 3, 2, {1.0, 2.0});
  EXPECT_NEAR(y[0], a[0] + 2 * a[1], 1e-15);
  EXPECT_NEAR(y[2], a[4] + 2 * a[5], 1e-15);
}

TEST(Context, DotEndToEnd) {
  Rng rng(3);
  Context ctx;
  const auto u = rng.vector(2048);
  const auto v = rng.vector(2048);
  const auto r = ctx.runtime().run(OpDesc::dot(u, v));
  EXPECT_NEAR(r.values.at(0), host::ref_dot(u, v), 1e-9);
  EXPECT_GT(r.report.sustained_mflops(), 0.0);
  // Table 3: the dot design sustains >= 80% of the I/O-bound peak (bw words/s
  // = 687.5 MFLOPS at 5.5 GB/s).
  EXPECT_GT(r.report.sustained_mflops(), 0.80 * 687.5);
  EXPECT_LE(r.report.sustained_mflops(), 687.5 * 1.001);
}

TEST(Context, GemvSramMatchesReferenceAndIsNearPeak) {
  Rng rng(4);
  Context ctx;
  const std::size_t n = 256;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  const auto out = ctx.runtime().run(OpDesc::gemv(a, n, n, x));
  const auto ref = host::ref_gemv(a, n, n, x);
  EXPECT_LT(host::max_abs_diff(out.values, ref),
            1e-10 * static_cast<double>(n));
  // SRAM-resident GEMV: ~2 flops per streamed word at 4 words/cycle.
  const double fpc = out.report.flops_per_cycle();
  EXPECT_GT(fpc, 7.5);  // 8 = perfect 2*k
  EXPECT_LE(fpc, 8.0);
}

TEST(Context, GemvDramStagingDominates) {
  // Table 4: from DRAM the staging phase dominates (6.4 of 8.0 ms at
  // n = 1024); sustained performance collapses to ~80% of the DRAM-bound
  // peak of 2 * bw.
  Rng rng(5);
  Context ctx;
  const std::size_t n = 256;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  auto& rt = ctx.runtime();
  const auto sram = rt.run(OpDesc::gemv(a, n, n, x, Placement::Sram));
  const auto dram = rt.run(OpDesc::gemv(a, n, n, x, Placement::Dram));
  EXPECT_EQ(sram.values, dram.values);  // numerics unchanged
  EXPECT_GT(dram.report.staging_cycles, 3 * sram.report.cycles);
  const double frac_staging = static_cast<double>(dram.report.staging_cycles) /
                              static_cast<double>(dram.report.cycles);
  EXPECT_GT(frac_staging, 0.75);
  EXPECT_LT(frac_staging, 0.85);
}

TEST(Context, GemvColumnArchAgrees) {
  Rng rng(6);
  Context ctx;
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  auto& rt = ctx.runtime();
  const auto tree =
      rt.run(OpDesc::gemv(a, n, n, x, Placement::Sram, GemvArch::Tree));
  const auto col =
      rt.run(OpDesc::gemv(a, n, n, x, Placement::Sram, GemvArch::Column));
  EXPECT_LT(host::max_abs_diff(tree.values, col.values),
            1e-10 * static_cast<double>(n));
}

TEST(Context, GemmMatchesReference) {
  Rng rng(7);
  ContextConfig cfg;
  cfg.mm_b = 32;  // small panels for test scale
  Context ctx(cfg);
  const std::size_t n = 64;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  const auto out = ctx.runtime().run(OpDesc::gemm(a, b, n));
  const auto ref = host::ref_gemm(a, b, n);
  EXPECT_LT(host::max_abs_diff(out.values, ref), 1e-9 * static_cast<double>(n));
  // 2k flops/cycle at k = 8: 16 flops/cycle compute-bound.
  EXPECT_GT(out.report.flops_per_cycle(), 15.0);
}

TEST(Context, GemmSustainedGflopsMatchesTable4Shape) {
  // The Table 4 figure: 2.06 GFLOPS at 130 MHz — i.e. ~2 flops/PE/cycle x 8
  // PEs. The sustained number is independent of n (compute bound), so the
  // test-scale run must land on the same figure.
  Rng rng(8);
  ContextConfig cfg;
  cfg.mm_b = 64;
  Context ctx(cfg);
  const std::size_t n = 64;
  const auto out =
      ctx.runtime().run(OpDesc::gemm(rng.matrix(n, n), rng.matrix(n, n), n));
  EXPECT_NEAR(out.report.sustained_gflops(), 2.06, 0.06);
}

TEST(Context, GemmArrayCycleAccurateAgrees) {
  Rng rng(9);
  ContextConfig cfg;
  Context ctx(cfg);
  const std::size_t n = 24;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  const auto out = ctx.runtime().run(OpDesc::gemm_array(a, b, n));
  EXPECT_LT(host::max_abs_diff(out.values, host::ref_gemm(a, b, n)),
            1e-10 * static_cast<double>(n));
}

TEST(Context, DesignAreasMatchTables) {
  // The configured designs' post-P&R areas (Tables 3 / 4).
  const ContextConfig cfg;
  const machine::AreaModel area;
  EXPECT_EQ(area.dot_design(cfg.dot_k).slices, 5210u);
  EXPECT_EQ(area.mxv_design_xd1(cfg.gemv_k).slices, 13772u);
  EXPECT_DOUBLE_EQ(area.mxv_design_xd1(cfg.gemv_k).clock_mhz, 164.0);
  EXPECT_EQ(area.mm_design_xd1(cfg.mm_k).slices, 21029u);
  EXPECT_DOUBLE_EQ(area.mm_design_xd1(cfg.mm_k).clock_mhz, 130.0);
}

TEST(Context, ReportConversions) {
  host::PerfReport r;
  r.cycles = 130'000'000;
  r.flops = 2ull * 512 * 512 * 512;
  r.clock_mhz = 130.0;
  EXPECT_NEAR(r.seconds(), 1.0, 1e-9);
  EXPECT_NEAR(r.sustained_gflops(), 0.268, 0.001);
}

TEST(Context, GemvBramPlanMatchesPaperLimits) {
  const ContextConfig cfg;
  // n = 2048 fits comfortably (Table 3's experiment size)...
  EXPECT_NO_THROW(host::gemv_bram_plan(cfg, 2048));
  // ...and the capacity bound is the device's 65536 words minus buffers.
  EXPECT_GT(host::gemv_onchip_x_capacity(cfg), 60000u);
  EXPECT_THROW(host::gemv_bram_plan(cfg, 70000), ConfigError);
}

TEST(Context, GemvAutoFallsBackToBlockedWhenXTooLarge) {
  // Shrink the device BRAM so blocking triggers at test scale.
  ContextConfig cfg;
  cfg.device.bram_bits = 64 * 600;  // 600 words on chip
  Context ctx(cfg);
  EXPECT_LT(host::gemv_onchip_x_capacity(cfg), 300u);

  Rng rng(21);
  const std::size_t rows = 64, cols = 900;  // x cannot fit
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  const auto out = ctx.runtime().run(OpDesc::gemv_auto(a, rows, cols, x));
  EXPECT_LT(host::max_abs_diff(out.values, host::ref_gemv(a, rows, cols, x)),
            1e-10 * cols);
  EXPECT_NE(out.report.design.find("blocked"), std::string::npos);

  // Small x takes the unblocked path.
  const auto small_a = rng.matrix(rows, 64);
  const auto small =
      ctx.runtime().run(OpDesc::gemv_auto(small_a, rows, 64, rng.vector(64)));
  EXPECT_EQ(small.report.design.find("blocked"), std::string::npos);
}

TEST(Context, GemmBramPlanFitsDefaultConfig) {
  const auto plan = host::gemm_bram_plan(ContextConfig{});
  EXPECT_LE(plan.used_words(), plan.capacity_words());
  EXPECT_EQ(plan.used_words(), 2u * 8 * 8 + 16);
}

TEST(Context, GemmMultiScalesAcrossFpgas) {
  Rng rng(22);
  const std::size_t n = 32;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);

  ContextConfig one;
  one.mm_b = 32;
  ContextConfig two = one;
  two.mm_l = 2;
  const auto o1 = Context(one).runtime().run(OpDesc::gemm_multi(a, b, n));
  const auto o2 = Context(two).runtime().run(OpDesc::gemm_multi(a, b, n));
  EXPECT_EQ(o1.values, o2.values);  // same accumulation order at any l
  EXPECT_LT(host::max_abs_diff(o1.values, host::ref_gemm(a, b, n)), 1e-10 * n);
  EXPECT_LT(o2.report.cycles, o1.report.cycles);
}

TEST(Context, SpmxvThroughApi) {
  Rng rng(23);
  const std::size_t n = 128;
  const auto m = blas2::make_uniform_sparse(n, n, 8, 44);
  const auto x = rng.vector(n);
  Context ctx;
  const auto out = ctx.runtime().run(OpDesc::spmxv(m, x));
  EXPECT_LT(
      host::max_abs_diff(out.values, host::ref_gemv(m.to_dense(), n, n, x)),
      1e-10 * n);
  EXPECT_EQ(out.report.flops, 2 * m.nnz());

  // x beyond the on-chip capacity is rejected.
  ContextConfig tiny;
  tiny.device.bram_bits = 64 * 500;
  Context small(tiny);
  EXPECT_THROW(small.runtime().run(OpDesc::spmxv(m, x)), ConfigError);
}
