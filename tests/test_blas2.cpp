// Level 2 BLAS (GEMV) tests: both paper architectures, blocked variants,
// hazard conditions, and the near-peak-efficiency claim (Sec 4.2 / 4.4).
#include <gtest/gtest.h>

#include <cmath>

#include "blas2/blocking.hpp"
#include "blas2/mxv_col.hpp"
#include "blas2/mxv_tree.hpp"
#include "common/random.hpp"
#include "host/reference.hpp"

using namespace xd;
using blas2::MxvColConfig;
using blas2::MxvColEngine;
using blas2::MxvTreeConfig;
using blas2::MxvTreeEngine;

namespace {

void expect_close(const std::vector<double>& got, const std::vector<double>& want,
                  double scale = 1.0) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double tol = std::max(1e-12, std::fabs(want[i]) * 1e-12) * scale;
    EXPECT_NEAR(got[i], want[i], tol) << "element " << i;
  }
}

}  // namespace

struct GemvShape {
  std::size_t rows, cols;
};

class TreeShapes : public ::testing::TestWithParam<GemvShape> {};

TEST_P(TreeShapes, MatchesReference) {
  const auto [rows, cols] = GetParam();
  Rng rng(rows * 131 + cols);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  MxvTreeEngine engine(MxvTreeConfig{});
  const auto out = engine.run(a, rows, cols, x);
  expect_close(out.y, host::ref_gemv(a, rows, cols, x),
               static_cast<double>(cols));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TreeShapes,
                         ::testing::Values(GemvShape{1, 1}, GemvShape{1, 64},
                                           GemvShape{64, 1}, GemvShape{17, 33},
                                           GemvShape{128, 128},
                                           GemvShape{64, 257},
                                           GemvShape{100, 100}));

class TreeLanes : public ::testing::TestWithParam<unsigned> {};

TEST_P(TreeLanes, LaneSweepCorrect) {
  const unsigned k = GetParam();
  Rng rng(500 + k);
  const std::size_t n = 96;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  MxvTreeConfig cfg;
  cfg.k = k;
  cfg.mem_words_per_cycle = k;
  MxvTreeEngine engine(cfg);
  const auto out = engine.run(a, n, n, x);
  expect_close(out.y, host::ref_gemv(a, n, n, x), static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lanes, TreeLanes, ::testing::Values(1, 2, 4, 8, 16));

TEST(MxvTree, NearPeakEfficiency) {
  // Sec 4.4 / Table 3: the GEMV tree design sustains > 95% of the I/O peak.
  Rng rng(501);
  const std::size_t n = 512;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  MxvTreeEngine engine(MxvTreeConfig{});
  const auto out = engine.run(a, n, n, x);
  const u64 lb = engine.io_lower_bound_cycles(n, n);
  const double efficiency =
      static_cast<double>(lb) / static_cast<double>(out.report.cycles);
  EXPECT_GT(efficiency, 0.95);
}

TEST(MxvTree, StallsWhenBandwidthBelowLanes) {
  Rng rng(502);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  MxvTreeConfig starved;
  starved.k = 4;
  starved.mem_words_per_cycle = 2.0;  // half the lanes' appetite
  const auto out = MxvTreeEngine(starved).run(a, n, n, x);
  expect_close(out.y, host::ref_gemv(a, n, n, x), static_cast<double>(n));
  // Time roughly doubles against the bandwidth-matched configuration.
  MxvTreeConfig matched;
  matched.k = 4;
  matched.mem_words_per_cycle = 4.0;
  const auto fast = MxvTreeEngine(matched).run(a, n, n, x);
  EXPECT_NEAR(static_cast<double>(out.report.cycles) /
                  static_cast<double>(fast.report.cycles),
              2.0, 0.25);
}

class ColShapes : public ::testing::TestWithParam<GemvShape> {};

TEST_P(ColShapes, MatchesReference) {
  const auto [rows, cols] = GetParam();
  Rng rng(rows * 77 + cols);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  MxvColEngine engine(MxvColConfig{});
  const auto out = engine.run(a, rows, cols, x);
  expect_close(out.y, host::ref_gemv(a, rows, cols, x),
               static_cast<double>(cols));
}

// All shapes here satisfy ceil(rows/k) >= 14 for k = 4.
INSTANTIATE_TEST_SUITE_P(Shapes, ColShapes,
                         ::testing::Values(GemvShape{56, 8}, GemvShape{64, 64},
                                           GemvShape{100, 33},
                                           GemvShape{128, 128},
                                           GemvShape{57, 200}));

TEST(MxvCol, HazardConditionEnforced) {
  // ceil(rows/k) < adder depth would re-read a y element mid-pipeline; the
  // engine must reject the configuration (Sec 4.2's n/k >= alpha condition).
  Rng rng(503);
  const std::size_t rows = 16, cols = 16;  // 16/4 = 4 < 14
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  MxvColEngine engine(MxvColConfig{});
  EXPECT_THROW(engine.run(a, rows, cols, x), ConfigError);
}

TEST(MxvCol, MinimalLegalHeightWorks) {
  Rng rng(504);
  MxvColConfig cfg;
  cfg.k = 2;
  const std::size_t rows = 2 * fp::kAdderStages;  // exactly alpha groups
  const std::size_t cols = 32;
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  const auto out = MxvColEngine(cfg).run(a, rows, cols, x);
  expect_close(out.y, host::ref_gemv(a, rows, cols, x),
               static_cast<double>(cols));
}

TEST(MxvCol, AgreesWithTreeArchitecture) {
  Rng rng(505);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  const auto yt = MxvTreeEngine(MxvTreeConfig{}).run(a, n, n, x);
  const auto yc = MxvColEngine(MxvColConfig{}).run(a, n, n, x);
  // Different accumulation orders: equal within rounding, not bitwise.
  expect_close(yt.y, yc.y, static_cast<double>(n));
}

TEST(BlockedGemv, TreePanelsMatchReference) {
  Rng rng(506);
  const std::size_t rows = 64, cols = 300;
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  const auto out = blas2::run_blocked_gemv_tree(MxvTreeConfig{}, 128, a, rows,
                                                cols, x);
  expect_close(out.y, host::ref_gemv(a, rows, cols, x),
               static_cast<double>(cols));
  EXPECT_GT(out.report.cycles, 0u);
}

TEST(BlockedGemv, ColPanelsMatchReference) {
  Rng rng(507);
  const std::size_t rows = 300, cols = 64;
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  MxvColConfig cfg;
  cfg.k = 2;
  const auto out = blas2::run_blocked_gemv_col(cfg, 100, a, rows, cols, x);
  expect_close(out.y, host::ref_gemv(a, rows, cols, x),
               static_cast<double>(cols));
}

TEST(BlockedGemv, SinglePanelEqualsUnblocked) {
  Rng rng(508);
  const std::size_t n = 64;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  const auto blocked =
      blas2::run_blocked_gemv_tree(MxvTreeConfig{}, n, a, n, n, x);
  const auto plain = MxvTreeEngine(MxvTreeConfig{}).run(a, n, n, x);
  ASSERT_EQ(blocked.y.size(), plain.y.size());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(blocked.y[i], plain.y[i]);
  EXPECT_EQ(blocked.report.cycles, plain.report.cycles);
}

TEST(BlockedGemv, MorePanelsCostMoreCycles) {
  Rng rng(509);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  const auto one = blas2::run_blocked_gemv_tree(MxvTreeConfig{}, n, a, n, n, x);
  const auto four =
      blas2::run_blocked_gemv_tree(MxvTreeConfig{}, n / 4, a, n, n, x);
  EXPECT_GT(four.report.cycles, one.report.cycles);
  // But the overhead is small: panels only add pipeline drains.
  EXPECT_LT(static_cast<double>(four.report.cycles),
            1.2 * static_cast<double>(one.report.cycles));
}

TEST(MxvEngines, InvalidInputsRejected) {
  MxvTreeEngine tree{MxvTreeConfig{}};
  EXPECT_THROW(tree.run({1.0}, 1, 2, {1.0, 2.0}), ConfigError);
  EXPECT_THROW(tree.run({}, 0, 0, {}), ConfigError);
  MxvTreeConfig bad;
  bad.k = 6;
  EXPECT_THROW(MxvTreeEngine{bad}, ConfigError);
}
