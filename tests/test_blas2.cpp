// Level 2 BLAS (GEMV) tests: both paper architectures, blocked variants,
// hazard conditions, and the near-peak-efficiency claim (Sec 4.2 / 4.4).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "blas1/dot_engine.hpp"
#include "blas2/blocking.hpp"
#include "blas2/mxv_col.hpp"
#include "blas2/mxv_on_node.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "common/random.hpp"
#include "host/reference.hpp"
#include "machine/node.hpp"
#include "telemetry/session.hpp"

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

// ---- characterisation of the multiply-tree-reduce engines -----------------
//
// Dot, tree GEMV, SpMXV and on-node GEMV share one datapath (k multipliers,
// a (k-1)-adder tree, the Sec 4.3 reduction circuit) and differ only in how
// operands are fed. This table pins, per engine and lane count, the exact
// simulated cycles, stall cycles, SRAM words, an FNV-1a hash of the result
// bits and an FNV-1a hash of the sorted metric names registered on an
// attached telemetry session. Any change here is a change of simulated
// behaviour or of the exported metric vocabulary, never a refactor.

namespace {

enum class Datapath { Dot, Tree, Spmxv, Node };

struct MacCase {
  const char* name;
  Datapath engine;
  unsigned k;   ///< multipliers; on-node: the node's SRAM bank count
  double rate;  ///< words (SpMXV: elements) per cycle; unused on-node
  int input;    ///< SpMXV: 0 power-law, 1 empty rows; on-node: 1 from DRAM
  u64 cycles;
  u64 stall_cycles;
  double sram_words;
  u64 value_hash;
  u64 names_hash;
};

constexpr u64 kFnvBasis = 1469598103934665603ull;

u64 fnv(u64 h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct MacRun {
  std::vector<double> values;
  host::PerfReport report;
  std::vector<std::string> names;
};

MacRun run_mac_case(const MacCase& c) {
  constexpr std::size_t rows = 13, cols = 24;
  Rng rng(4100 + c.k);
  telemetry::Session tel;
  MacRun r;
  switch (c.engine) {
    case Datapath::Dot: {
      std::vector<std::vector<double>> us, vs;
      for (std::size_t len : {24, 7, 1, 33}) {
        us.push_back(rng.vector(len));
        vs.push_back(rng.vector(len));
      }
      blas1::DotConfig cfg;
      cfg.k = c.k;
      cfg.mem_words_per_cycle = c.rate;
      cfg.telemetry = &tel;
      auto out = blas1::DotEngine(cfg).run(us, vs);
      r.values = std::move(out.results);
      r.report = out.report;
      break;
    }
    case Datapath::Tree: {
      const auto a = rng.matrix(rows, cols);
      const auto x = rng.vector(cols);
      MxvTreeConfig cfg;
      cfg.k = c.k;
      cfg.mem_words_per_cycle = c.rate;
      cfg.telemetry = &tel;
      auto out = MxvTreeEngine(cfg).run(a, rows, cols, x);
      r.values = std::move(out.y);
      r.report = out.report;
      break;
    }
    case Datapath::Spmxv: {
      blas2::CrsMatrix m;
      if (c.input == 0) {
        m = blas2::make_power_law(40, 48, 20, 4200);
      } else {
        auto dense = rng.matrix(9, 16);
        for (std::size_t row : {0, 3, 4, 8}) {
          std::fill_n(dense.begin() + static_cast<long>(row * 16), 16, 0.0);
        }
        m = blas2::CrsMatrix::from_dense(dense, 9, 16);
      }
      const auto x = rng.vector(m.cols);
      blas2::SpmxvConfig cfg;
      cfg.k = c.k;
      cfg.mem_elements_per_cycle = c.rate;
      cfg.telemetry = &tel;
      auto out = blas2::SpmxvEngine(cfg).run(m, x);
      r.values = std::move(out.y);
      r.report = out.report;
      break;
    }
    case Datapath::Node: {
      const auto a = rng.matrix(rows, cols);
      const auto x = rng.vector(cols);
      machine::NodeConfig ncfg;
      ncfg.sram_banks = c.k;
      ncfg.sram_bank_words = 1024;
      ncfg.dram_words = 4096;
      machine::ComputeNode node(ncfg);
      blas2::NodeGemvConfig cfg;
      cfg.telemetry = &tel;
      auto out = blas2::NodeGemvEngine(node, cfg).run(a, rows, cols, x,
                                                      c.input == 1);
      r.values = std::move(out.y);
      r.report = out.report;
      break;
    }
  }
  r.names = tel.metrics().names();
  return r;
}

class MacReduceEngines : public ::testing::TestWithParam<MacCase> {};

TEST_P(MacReduceEngines, PinnedTimingBitsAndMetricNames) {
  const MacCase& c = GetParam();
  const MacRun r = run_mac_case(c);

  u64 value_hash = kFnvBasis;
  for (double v : r.values) value_hash = fnv(value_hash, &v, sizeof v);
  u64 names_hash = kFnvBasis;
  std::ostringstream names;
  for (const auto& n : r.names) {
    names_hash = fnv(names_hash, n.data(), n.size() + 1);  // + terminator
    names << "\n  " << n;
  }

  EXPECT_EQ(r.report.cycles, c.cycles);
  EXPECT_EQ(r.report.stall_cycles, c.stall_cycles);
  EXPECT_EQ(r.report.sram_words, c.sram_words);
  EXPECT_EQ(value_hash, c.value_hash);
  EXPECT_EQ(names_hash, c.names_hash) << "registered metrics:" << names.str();
  // Paste-ready row for a deliberate re-recording.
  if (HasFailure()) {
    std::cout << "    {\"" << c.name << "\", ..., " << r.report.cycles << ", "
              << r.report.stall_cycles << ", " << r.report.sram_words << ", "
              << value_hash << "ull, " << names_hash << "ull},\n";
  }
}

using D = Datapath;

INSTANTIATE_TEST_SUITE_P(
    Grid, MacReduceEngines,
    ::testing::Values(
        MacCase{"dot_k1", D::Dot, 1, 4.0, 0,
                147, 0, 130, 15336414720051560159ull, 17289995028322767245ull},
        MacCase{"dot_k2", D::Dot, 2, 4.0, 0,
                128, 0, 130, 13991777190187202149ull, 13815055242430039946ull},
        MacCase{"dot_k4", D::Dot, 4, 4.0, 0,
                152, 0, 130, 805235653136157595ull, 13815055242430039946ull},
        MacCase{"dot_k8", D::Dot, 8, 4.0, 0,
                136, 0, 130, 13252248898606816939ull, 13815055242430039946ull},
        MacCase{"dot_k2_bw0_75", D::Dot, 2, 0.75, 0,
                282, 0, 130, 16766138912306447596ull, 13815055242430039946ull},
        MacCase{"dot_k4_bw1_5", D::Dot, 4, 1.5, 0,
                193, 0, 130, 805235653136157595ull, 13815055242430039946ull},
        MacCase{"tree_k1", D::Tree, 1, 4.0, 0,
                507, 0, 325, 8438446907408857693ull, 16806921353452269295ull},
        MacCase{"tree_k2", D::Tree, 2, 4.0, 0,
                338, 0, 325, 259281179735742255ull, 9087595390167945390ull},
        MacCase{"tree_k4", D::Tree, 4, 4.0, 0,
                196, 0, 325, 2650390699663267952ull, 9087595390167945390ull},
        MacCase{"tree_k8", D::Tree, 8, 4.0, 0,
                187, 0, 325, 6539448610177134920ull, 9087595390167945390ull},
        MacCase{"tree_k4_bw0_75", D::Tree, 4, 0.75, 0,
                552, 0, 325, 5402131528119357978ull, 9087595390167945390ull},
        MacCase{"tree_k8_bw1_5", D::Tree, 8, 1.5, 0,
                316, 0, 325, 6539448610177134920ull, 9087595390167945390ull},
        MacCase{"spmxv_k1", D::Spmxv, 1, 2.0, 0,
                306, 72, 356, 15883775869388561690ull, 13994417246944325201ull},
        MacCase{"spmxv_k2", D::Spmxv, 2, 2.0, 0,
                237, 70, 356, 11525300210180845500ull, 14806596228141251297ull},
        MacCase{"spmxv_k4", D::Spmxv, 4, 2.0, 0,
                180, 68, 356, 13758346278700391185ull, 14806596228141251297ull},
        MacCase{"spmxv_k8", D::Spmxv, 8, 2.0, 0,
                163, 4, 356, 2302229268951047956ull, 14806596228141251297ull},
        MacCase{"spmxv_k4_bw0_75", D::Spmxv, 4, 0.75, 0,
                277, 0, 356, 13758346278700391185ull, 14806596228141251297ull},
        MacCase{"spmxv_k2_bw1_5", D::Spmxv, 2, 1.5, 0,
                246, 64, 356, 11525300210180845500ull, 14806596228141251297ull},
        MacCase{"spmxv_empty_k1", D::Spmxv, 1, 2.0, 1,
                187, 0, 177, 3285119828091951722ull, 13994417246944325201ull},
        MacCase{"spmxv_empty_k4", D::Spmxv, 4, 2.0, 1,
                117, 0, 177, 170824667954333864ull, 14806596228141251297ull},
        MacCase{"node_k2", D::Node, 2, 0, 0,
                338, 0, 312, 259281179735742255ull, 14424159349342752708ull},
        MacCase{"node_k4", D::Node, 4, 0, 0,
                196, 0, 312, 2650390699663267952ull, 3282100533540946750ull},
        MacCase{"node_k8", D::Node, 8, 0, 0,
                132, 0, 312, 6539448610177134920ull, 12157624434564741806ull},
        MacCase{"node_k4_dram", D::Node, 4, 0, 1,
                344, 0, 312, 2650390699663267952ull, 3282100533540946750ull}),
    [](const ::testing::TestParamInfo<MacCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
