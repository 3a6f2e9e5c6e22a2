// Level 3 BLAS (GEMM) tests: the cycle-accurate PE array against the
// reference, the n^3/k latency model, hazard/bandwidth behaviour, I/O
// complexity, and the hierarchical engine's consistency with the array.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "blas3/gemm_rows.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "common/random.hpp"
#include "fp/backend.hpp"
#include "host/reference.hpp"
#include "model/perf_model.hpp"

using namespace xd;
using blas3::MmArrayConfig;
using blas3::MmArrayEngine;
using blas3::MmHierConfig;
using blas3::MmHierEngine;

namespace {

void expect_close(const std::vector<double>& got, const std::vector<double>& want,
                  double scale) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double tol = std::max(1e-12, std::fabs(want[i]) * 1e-13 * scale);
    ASSERT_NEAR(got[i], want[i], tol) << "element " << i;
  }
}

MmArrayConfig small_cfg(unsigned k, unsigned m) {
  MmArrayConfig cfg;
  cfg.k = k;
  cfg.m = m;
  // Small m stresses the hazard margin; use a shallow adder to keep
  // m^2/k >= stages legal in the small sweeps.
  cfg.adder_stages = 4;
  cfg.multiplier_stages = 3;
  cfg.mem_words_per_cycle = 8.0;
  return cfg;
}

}  // namespace

struct MmCase {
  unsigned k, m;
  std::size_t n;
};

class ArrayCases : public ::testing::TestWithParam<MmCase> {};

TEST_P(ArrayCases, MatchesReference) {
  const auto [k, m, n] = GetParam();
  Rng rng(k * 1000 + m * 10 + n);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  MmArrayEngine engine(small_cfg(k, m));
  const auto out = engine.run(a, b, n);
  expect_close(out.c, host::ref_gemm(a, b, n), static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ArrayCases,
    ::testing::Values(MmCase{1, 4, 8}, MmCase{2, 4, 8}, MmCase{4, 4, 16},
                      MmCase{2, 8, 16}, MmCase{4, 8, 24}, MmCase{8, 8, 32},
                      MmCase{4, 16, 32}, MmCase{8, 16, 48}));

TEST(MmArray, PaperConfigMatchesReference) {
  // The Table 4 configuration (k = 8, m = 8, full 14/11-stage units) at a
  // test-sized n.
  Rng rng(77);
  const std::size_t n = 32;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  MmArrayConfig cfg;  // defaults: k=8, m=8, 14-stage adder
  MmArrayEngine engine(cfg);
  const auto out = engine.run(a, b, n);
  expect_close(out.c, host::ref_gemm(a, b, n), static_cast<double>(n));
}

TEST(MmArray, EffectiveLatencyIsNCubedOverK) {
  Rng rng(78);
  for (const auto& [k, m, n] :
       {MmCase{2, 4, 16}, MmCase{4, 8, 32}, MmCase{8, 8, 32}}) {
    const auto a = rng.matrix(n, n);
    const auto b = rng.matrix(n, n);
    MmArrayEngine engine(small_cfg(k, m));
    const auto out = engine.run(a, b, n);
    const double model = static_cast<double>(engine.model_cycles(n));
    const double measured = static_cast<double>(out.report.cycles);
    // Within a few percent: the difference is array skew + pipeline drain.
    EXPECT_GT(measured, model * 0.999);
    EXPECT_LT(measured, model * 1.05 + 200.0)
        << "k=" << k << " m=" << m << " n=" << n;
    EXPECT_EQ(out.report.stall_cycles, 0u);
  }
}

TEST(MmArray, HazardConditionEnforced) {
  // m^2/k < adder depth: the C' slot would be re-read mid-pipeline.
  MmArrayConfig cfg;
  cfg.k = 8;
  cfg.m = 8;
  cfg.adder_stages = 9;  // m^2/k = 8 < 9
  EXPECT_THROW(MmArrayEngine{cfg}, ConfigError);
}

TEST(MmArray, BandwidthStarvationStallsButStaysCorrect) {
  Rng rng(79);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  auto cfg = small_cfg(4, 4);  // needs 3k/m = 3 words/cycle
  cfg.mem_words_per_cycle = 1.0;
  MmArrayEngine engine(cfg);
  const auto out = engine.run(a, b, n);
  expect_close(out.c, host::ref_gemm(a, b, n), static_cast<double>(n));
  EXPECT_GT(out.report.stall_cycles, 0u);
  EXPECT_GT(out.report.cycles, engine.model_cycles(n) * 2);
}

TEST(MmArray, RequiredBandwidthFormula) {
  MmArrayEngine e(small_cfg(4, 16));
  EXPECT_DOUBLE_EQ(e.required_words_per_cycle(), 3.0 * 4 / 16);
  EXPECT_EQ(e.storage_words(), 2ull * 16 * 16);
}

TEST(MmArray, IoComplexityMatchesTheta_N3_over_m) {
  Rng rng(80);
  const std::size_t n = 32;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  for (unsigned m : {4u, 8u, 16u}) {
    MmArrayEngine engine(small_cfg(4, m));
    const auto out = engine.run(a, b, n);
    const double expected = model::mm_io_words(n, m);
    EXPECT_NEAR(out.report.sram_words, expected, expected * 0.01)
        << "m=" << m;
  }
}

TEST(MmArray, InvalidConfigsRejected) {
  MmArrayConfig cfg;
  cfg.k = 3;
  cfg.m = 8;  // m % k != 0
  EXPECT_THROW(MmArrayEngine{cfg}, ConfigError);
  cfg = MmArrayConfig{};
  MmArrayEngine ok(cfg);
  Rng rng(1);
  EXPECT_THROW(ok.run(rng.matrix(12, 12), rng.matrix(12, 12), 12),
               ConfigError);  // n not a multiple of m
}

// ---------------------------------------------------------------------------
// Hierarchical engine.

TEST(MmHier, NumericsBitIdenticalToArray) {
  // The hierarchical engine promises the exact accumulation order of the PE
  // array; verify bit-for-bit at l = 1.
  Rng rng(90);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);

  MmArrayEngine array(small_cfg(4, 4));
  const auto ca = array.run(a, b, n);

  MmHierConfig hc;
  hc.l = 1;
  hc.k = 4;
  hc.m = 4;
  hc.b = 8;
  hc.adder_stages = 4;
  MmHierEngine hier(hc);
  const auto ch = hier.run(a, b, n);

  ASSERT_EQ(ca.c.size(), ch.c.size());
  for (std::size_t i = 0; i < ca.c.size(); ++i) {
    EXPECT_EQ(ca.c[i], ch.c[i]) << "element " << i;
  }
}

TEST(MmHier, CycleModelConsistentWithArrayAtL1) {
  Rng rng(91);
  const std::size_t n = 32;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);

  MmArrayEngine array(small_cfg(8, 8));
  const auto ca = array.run(a, b, n);

  MmHierConfig hc;
  hc.l = 1;
  hc.k = 8;
  hc.m = 8;
  hc.b = 16;
  hc.adder_stages = 4;
  hc.dram_words_per_cycle = 8.0;
  MmHierEngine hier(hc);
  const auto ch = hier.run(a, b, n);

  const double ratio = static_cast<double>(ca.report.cycles) /
                       static_cast<double>(ch.report.cycles);
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(MmHier, MoreFpgasCutLatencyLinearly) {
  MmHierConfig base;
  base.k = 8;
  base.m = 8;
  base.b = 128;
  base.dram_words_per_cycle = 8.0;
  base.link_words_per_cycle = 8.0;

  MmHierEngine l1(base);
  base.l = 2;
  MmHierEngine l2(base);
  base.l = 4;  // b = 128 is a multiple of m*l = 32
  MmHierEngine l4(base);

  const std::size_t n = 1024;
  const double c1 = static_cast<double>(l1.project(n).report.cycles);
  const double c2 = static_cast<double>(l2.project(n).report.cycles);
  const double c4 = static_cast<double>(l4.project(n).report.cycles);
  EXPECT_NEAR(c1 / c2, 2.0, 0.01);
  EXPECT_NEAR(c1 / c4, 4.0, 0.01);
}

TEST(MmHier, DramTrafficIsThetaN3OverB) {
  MmHierConfig cfg;
  cfg.k = 8;
  cfg.m = 8;
  cfg.b = 64;
  MmHierEngine engine(cfg);
  const std::size_t n = 512;
  const auto out = engine.project(n);
  const double expected = 2.0 * std::pow(static_cast<double>(n), 3) / 64.0 +
                          static_cast<double>(n) * n;
  EXPECT_NEAR(out.report.dram_words, expected, 1.0);
  EXPECT_DOUBLE_EQ(out.required_dram_words_per_cycle, 3.0 * 8 * 1 / 64.0);
}

TEST(MmHier, StallsWhenDramTooSlow) {
  MmHierConfig cfg;
  cfg.k = 8;
  cfg.m = 8;
  cfg.b = 64;
  cfg.dram_words_per_cycle = 0.05;  // below the 3kl/b = 0.375 requirement
  MmHierEngine engine(cfg);
  const auto out = engine.project(512);
  EXPECT_GT(out.report.stall_cycles, 0u);
  EXPECT_GT(out.report.cycles, out.report.compute_cycles);
}

TEST(MmHier, SmallEndToEndMatchesReference) {
  Rng rng(92);
  const std::size_t n = 24;
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  MmHierConfig cfg;
  cfg.l = 3;
  cfg.k = 2;
  cfg.m = 4;
  cfg.b = 12;
  cfg.adder_stages = 4;
  MmHierEngine engine(cfg);
  const auto out = engine.run(a, b, n);
  expect_close(out.c, host::ref_gemm(a, b, n), static_cast<double>(n));
  EXPECT_DOUBLE_EQ(out.sram_panel_words, 2.0 * 12 * 12);
}

TEST(MmHier, RowBlocksMatchOneKernelCallBitForBit) {
  // 190 x 192 x 192 is 7.0M MACs, over three times kMinBlockMacs: with
  // several pool workers the panel splits into uneven row blocks (63, 63
  // and 64 rows on four), each with a tail below the kernel's 4-row tile.
  // An infinity and a NaN send some rows through the non-finite recompute.
  Rng rng(93);
  const std::size_t rows = 190, n = 192;
  auto a = rng.matrix(rows, n);
  auto b = rng.matrix(n, n);
  a[70 * n + 5] = std::numeric_limits<double>::infinity();
  b[9 * n + 100] = std::numeric_limits<double>::quiet_NaN();
  ASSERT_GE(rows * n * n / blas3::kMinBlockMacs, 3u);

  MmHierConfig cfg;
  cfg.b = 64;
  const auto split = MmHierEngine(cfg).run_panel(a, rows, b, n);
  std::vector<double> whole(rows * n);
  fp::active_backend().gemm_rows(a.data(), b.data(), whole.data(), rows, n);
  ASSERT_EQ(split.c.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    ASSERT_EQ(fp::to_bits(split.c[i]), fp::to_bits(whole[i])) << "element " << i;
  }
}

TEST(MmHier, InvalidConfigsRejected) {
  MmHierConfig cfg;
  cfg.b = 100;  // not a multiple of m*l = 8
  EXPECT_THROW(MmHierEngine{cfg}, ConfigError);
  cfg = MmHierConfig{};
  cfg.m = 6;  // m % k != 0 (k = 8)
  EXPECT_THROW(MmHierEngine{cfg}, ConfigError);
}
