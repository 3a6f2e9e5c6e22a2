// Characterisation tables: every engine's exact PerfReport, result bits and
// exported metric vocabulary at small fixed shapes.
//
// Each row pins every PerfReport field (design, cycles, compute/staging/
// stall cycles, flops, SRAM and DRAM words, clock), an FNV-1a hash of the
// result bits, an FNV-1a hash of the sorted metric names registered on an
// attached telemetry session, and an FNV-1a hash of the engine-specific
// outcome extras (per-FPGA stats, link words, required rates, the shard
// scheduler's per-piece timeline). Any change here is a change of simulated
// behaviour or of the exported vocabulary, never a refactor. A failing row
// prints a paste-ready replacement for a deliberate re-recording.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "blas1/dot_engine.hpp"
#include "blas2/blocking.hpp"
#include "blas2/mxv_col.hpp"
#include "blas2/mxv_on_node.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "blas3/mm_multi.hpp"
#include "blas3/mm_on_node.hpp"
#include "common/random.hpp"
#include "host/runtime.hpp"
#include "host/shard.hpp"
#include "machine/node.hpp"
#include "sim/schedule.hpp"
#include "telemetry/session.hpp"

using namespace xd;

namespace {

constexpr u64 kFnvBasis = 1469598103934665603ull;

u64 fnv(u64 h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
u64 fnv_value(u64 h, T v) {
  return fnv(h, &v, sizeof v);
}

/// The pinned observables of one engine run.
struct Pins {
  const char* design;
  u64 cycles;
  u64 compute_cycles;
  u64 staging_cycles;
  u64 flops;
  u64 stall_cycles;
  double sram_words;
  double dram_words;
  double clock_mhz;
  u64 value_hash;
  u64 names_hash;
  u64 extra_hash;
};

struct EngineRun {
  std::vector<double> values;
  host::PerfReport report;
  std::vector<std::string> names;
  u64 extra_hash = kFnvBasis;  ///< engine-specific outcome fields
};

/// Compare a run against its pinned row; on any mismatch print the row the
/// run would pin, ready to paste over the old one.
void expect_pinned(const EngineRun& r, const Pins& p) {
  u64 value_hash = kFnvBasis;
  for (double v : r.values) value_hash = fnv_value(value_hash, v);
  u64 names_hash = kFnvBasis;
  std::ostringstream names;
  for (const auto& n : r.names) {
    names_hash = fnv(names_hash, n.data(), n.size() + 1);  // + terminator
    names << "\n  " << n;
  }
  const host::PerfReport& rep = r.report;

  EXPECT_EQ(rep.design, p.design);
  EXPECT_EQ(rep.cycles, p.cycles);
  EXPECT_EQ(rep.compute_cycles, p.compute_cycles);
  EXPECT_EQ(rep.staging_cycles, p.staging_cycles);
  EXPECT_EQ(rep.flops, p.flops);
  EXPECT_EQ(rep.stall_cycles, p.stall_cycles);
  EXPECT_EQ(rep.sram_words, p.sram_words);
  EXPECT_EQ(rep.dram_words, p.dram_words);
  EXPECT_EQ(rep.clock_mhz, p.clock_mhz);
  EXPECT_EQ(value_hash, p.value_hash);
  EXPECT_EQ(names_hash, p.names_hash) << "registered metrics:" << names.str();
  EXPECT_EQ(r.extra_hash, p.extra_hash);
  if (::testing::Test::HasFailure()) {
    std::ostringstream row;
    row << std::setprecision(std::numeric_limits<double>::max_digits10)
        << "{\"" << rep.design << "\", " << rep.cycles << ", "
        << rep.compute_cycles << ", " << rep.staging_cycles << ", "
        << rep.flops << ", " << rep.stall_cycles << ", " << rep.sram_words
        << ", " << rep.dram_words << ", " << rep.clock_mhz << ", "
        << value_hash << "ull, " << names_hash << "ull, " << r.extra_hash
        << "ull}";
    std::cout << "    pinned row: " << row.str() << "\n";
  }
}

// ---- the multiply-tree-reduce engines -------------------------------------
//
// Dot, tree GEMV, SpMXV and on-node GEMV share one datapath (k multipliers,
// a (k-1)-adder tree, the Sec 4.3 reduction circuit) and differ only in how
// operands are fed; the table sweeps the lane count k and the memory rate.

enum class Datapath { Dot, Tree, Spmxv, Node };

struct MacCase {
  const char* name;
  Datapath engine;
  unsigned k;   ///< multipliers; on-node: the node's SRAM bank count
  double rate;  ///< words (SpMXV: elements) per cycle; unused on-node
  int input;    ///< SpMXV: 0 power-law, 1 empty rows; on-node: 1 from DRAM
  Pins pins;
};

// Keeps ctest names stable: gtest's default byte dump would start with the
// name string's address, which changes from build to build.
void PrintTo(const MacCase& c, std::ostream* os) { *os << c.name; }

/// `slot` hands dot and tree GEMV a schedule slot, as the runtime does.
EngineRun run_mac_case(const MacCase& c, sim::ScheduleSlot* slot = nullptr) {
  constexpr std::size_t rows = 13, cols = 24;
  Rng rng(4100 + c.k);
  telemetry::Session tel;
  EngineRun r;
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
      cfg.schedule = slot;
      auto out = blas1::DotEngine(cfg).run(us, vs);
      r.values = std::move(out.results);
      r.report = out.report;
      break;
    }
    case Datapath::Tree: {
      const auto a = rng.matrix(rows, cols);
      const auto x = rng.vector(cols);
      blas2::MxvTreeConfig cfg;
      cfg.k = c.k;
      cfg.mem_words_per_cycle = c.rate;
      cfg.telemetry = &tel;
      cfg.schedule = slot;
      auto out = blas2::MxvTreeEngine(cfg).run(a, rows, cols, x);
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
  expect_pinned(run_mac_case(c), c.pins);
  if (c.engine != Datapath::Dot && c.engine != Datapath::Tree) return;
  // Dot and tree GEMV run twice more with one schedule slot, as a runtime
  // runs a plan: the first run simulates and records, the second replays.
  // Both must hit the pinned row, telemetry vocabulary included.
  sim::ScheduleSlot slot;
  expect_pinned(run_mac_case(c, &slot), c.pins);
  ASSERT_NE(slot.get(), nullptr);
  EXPECT_EQ(slot.replays(), 0u);
  expect_pinned(run_mac_case(c, &slot), c.pins);
  EXPECT_EQ(slot.replays(), 1u);
}

using D = Datapath;

INSTANTIATE_TEST_SUITE_P(
    Grid, MacReduceEngines,
    ::testing::Values(
        MacCase{"dot_k1", D::Dot, 1, 4.0, 0,
                {"dot k=1", 147, 147, 0, 130, 0, 130, 0, 170, 15336414720051560159ull,
                 17289995028322767245ull, kFnvBasis}},
        MacCase{"dot_k2", D::Dot, 2, 4.0, 0,
                {"dot k=2", 128, 128, 0, 130, 0, 130, 0, 170, 13991777190187202149ull,
                 13815055242430039946ull, kFnvBasis}},
        MacCase{"dot_k4", D::Dot, 4, 4.0, 0,
                {"dot k=4", 152, 152, 0, 130, 0, 130, 0, 170, 805235653136157595ull,
                 13815055242430039946ull, kFnvBasis}},
        MacCase{"dot_k8", D::Dot, 8, 4.0, 0,
                {"dot k=8", 136, 136, 0, 130, 0, 130, 0, 170, 13252248898606816939ull,
                 13815055242430039946ull, kFnvBasis}},
        MacCase{"dot_k2_bw0_75", D::Dot, 2, 0.75, 0,
                {"dot k=2", 282, 282, 0, 130, 0, 130, 0, 170, 16766138912306447596ull,
                 13815055242430039946ull, kFnvBasis}},
        MacCase{"dot_k4_bw1_5", D::Dot, 4, 1.5, 0,
                {"dot k=4", 193, 193, 0, 130, 0, 130, 0, 170, 805235653136157595ull,
                 13815055242430039946ull, kFnvBasis}},
        MacCase{"tree_k1", D::Tree, 1, 4.0, 0,
                {"gemv-tree k=1", 507, 507, 0, 624, 0, 325, 0, 164,
                 8438446907408857693ull, 16806921353452269295ull, kFnvBasis}},
        MacCase{"tree_k2", D::Tree, 2, 4.0, 0,
                {"gemv-tree k=2", 338, 338, 0, 624, 0, 325, 0, 164,
                 259281179735742255ull, 9087595390167945390ull, kFnvBasis}},
        MacCase{"tree_k4", D::Tree, 4, 4.0, 0,
                {"gemv-tree k=4", 196, 196, 0, 624, 0, 325, 0, 164,
                 2650390699663267952ull, 9087595390167945390ull, kFnvBasis}},
        MacCase{"tree_k8", D::Tree, 8, 4.0, 0,
                {"gemv-tree k=8", 187, 187, 0, 624, 0, 325, 0, 164,
                 6539448610177134920ull, 9087595390167945390ull, kFnvBasis}},
        MacCase{"tree_k4_bw0_75", D::Tree, 4, 0.75, 0,
                {"gemv-tree k=4", 552, 552, 0, 624, 0, 325, 0, 164,
                 5402131528119357978ull, 9087595390167945390ull, kFnvBasis}},
        MacCase{"tree_k8_bw1_5", D::Tree, 8, 1.5, 0,
                {"gemv-tree k=8", 316, 316, 0, 624, 0, 325, 0, 164,
                 6539448610177134920ull, 9087595390167945390ull, kFnvBasis}},
        MacCase{"spmxv_k1", D::Spmxv, 1, 2.0, 0,
                {"spmxv-tree k=1", 306, 306, 0, 316, 72, 356, 0, 164,
                 15883775869388561690ull, 13994417246944325201ull, kFnvBasis}},
        MacCase{"spmxv_k2", D::Spmxv, 2, 2.0, 0,
                {"spmxv-tree k=2", 237, 237, 0, 316, 70, 356, 0, 164,
                 11525300210180845500ull, 14806596228141251297ull, kFnvBasis}},
        MacCase{"spmxv_k4", D::Spmxv, 4, 2.0, 0,
                {"spmxv-tree k=4", 180, 180, 0, 316, 68, 356, 0, 164,
                 13758346278700391185ull, 14806596228141251297ull, kFnvBasis}},
        MacCase{"spmxv_k8", D::Spmxv, 8, 2.0, 0,
                {"spmxv-tree k=8", 163, 163, 0, 316, 4, 356, 0, 164,
                 2302229268951047956ull, 14806596228141251297ull, kFnvBasis}},
        MacCase{"spmxv_k4_bw0_75", D::Spmxv, 4, 0.75, 0,
                {"spmxv-tree k=4", 277, 277, 0, 316, 0, 356, 0, 164,
                 13758346278700391185ull, 14806596228141251297ull, kFnvBasis}},
        MacCase{"spmxv_k2_bw1_5", D::Spmxv, 2, 1.5, 0,
                {"spmxv-tree k=2", 246, 246, 0, 316, 64, 356, 0, 164,
                 11525300210180845500ull, 14806596228141251297ull, kFnvBasis}},
        MacCase{"spmxv_empty_k1", D::Spmxv, 1, 2.0, 1,
                {"spmxv-tree k=1", 187, 187, 0, 160, 0, 177, 0, 164,
                 3285119828091951722ull, 13994417246944325201ull, kFnvBasis}},
        MacCase{"spmxv_empty_k4", D::Spmxv, 4, 2.0, 1,
                {"spmxv-tree k=4", 117, 117, 0, 160, 0, 177, 0, 164,
                 170824667954333864ull, 14806596228141251297ull, kFnvBasis}},
        MacCase{"node_k2", D::Node, 2, 0, 0,
                {"gemv-on-node k=2", 338, 338, 0, 624, 0, 312, 0, 170,
                 259281179735742255ull, 14424159349342752708ull, kFnvBasis}},
        MacCase{"node_k4", D::Node, 4, 0, 0,
                {"gemv-on-node k=4", 196, 196, 0, 624, 0, 312, 0, 170,
                 2650390699663267952ull, 3282100533540946750ull, kFnvBasis}},
        MacCase{"node_k8", D::Node, 8, 0, 0,
                {"gemv-on-node k=8", 132, 132, 0, 624, 0, 312, 0, 170,
                 6539448610177134920ull, 12157624434564741806ull, kFnvBasis}},
        MacCase{"node_k4_dram", D::Node, 4, 0, 1,
                {"gemv-on-node k=4", 344, 201, 143, 624, 0, 312, 349, 170,
                 2650390699663267952ull, 3282100533540946750ull, kFnvBasis}}),
    [](const ::testing::TestParamInfo<MacCase>& info) {
      return std::string(info.param.name);
    });

// ---- the GEMM designs, the column GEMV, blocked GEMV and sharding ----------

enum class Design {
  MmArray,     ///< Sec 5.1 PE array; variant 1: starved input, tiny C store
  MmHier,      ///< Sec 5.2 hierarchical design; variant 1: a row panel
  MmMulti,     ///< Sec 5.2 block-event multi-FPGA pipeline
  MmOnNode,    ///< Sec 5.1 array on one XD1 node's SRAM banks and DRAM
  MxvCol,      ///< Sec 4.2 column-major GEMV
  BlockedTree, ///< Sec 4.4 tree GEMV over x panels
  BlockedCol,  ///< Sec 4.4 column GEMV over y panels
  Shard,       ///< host::ShardScheduler GEMM on 3 chassis x 2 nodes
};

struct EngineCase {
  const char* name;
  Design engine;
  unsigned k;   ///< PEs / lanes per FPGA
  unsigned l;   ///< FPGAs (shard: the forced shard count)
  double rate;  ///< memory words per cycle, where the design takes one
  int variant;
  Pins pins;
};

void PrintTo(const EngineCase& c, std::ostream* os) { *os << c.name; }

EngineRun run_engine_case(const EngineCase& c) {
  Rng rng(5200 + c.k * 16 + c.l);
  telemetry::Session tel;
  EngineRun r;
  switch (c.engine) {
    case Design::MmArray: {
      constexpr std::size_t n = 16;
      const auto a = rng.matrix(n, n);
      const auto b = rng.matrix(n, n);
      blas3::MmArrayConfig cfg;
      cfg.k = c.k;
      cfg.m = c.variant == 1 ? 4 : 8;
      if (c.variant == 1) {
        cfg.adder_stages = 4;
        cfg.c_storage_words = 2;
      }
      cfg.mem_words_per_cycle = c.rate;
      cfg.telemetry = &tel;
      auto out = blas3::MmArrayEngine(cfg).run(a, b, n);
      r.values = std::move(out.c);
      r.report = out.report;
      break;
    }
    case Design::MmHier: {
      constexpr std::size_t n = 32, panel_rows = 12;
      const std::size_t rows = c.variant == 1 ? panel_rows : n;
      const auto a = rng.matrix(rows, n);
      const auto b = rng.matrix(n, n);
      blas3::MmHierConfig cfg;
      cfg.l = c.l;
      cfg.k = c.k;
      cfg.m = 8;
      cfg.b = 16;
      cfg.telemetry = &tel;
      blas3::MmHierEngine engine(cfg);
      auto out = c.variant == 1 ? engine.run_panel(a, rows, b, n)
                                : engine.run(a, b, n);
      r.values = std::move(out.c);
      r.report = out.report;
      for (double v : {out.required_dram_words_per_cycle,
                       out.required_link_words_per_cycle,
                       out.required_sram_words_per_cycle,
                       out.sram_panel_words}) {
        r.extra_hash = fnv_value(r.extra_hash, v);
      }
      break;
    }
    case Design::MmMulti: {
      constexpr std::size_t n = 48;
      const auto a = rng.matrix(n, n);
      const auto b = rng.matrix(n, n);
      blas3::MmMultiConfig cfg;
      cfg.l = c.l;
      cfg.k = c.k;
      cfg.m = 8;
      cfg.b = 24;
      cfg.dram_words_per_cycle = c.rate;
      cfg.link_words_per_cycle = c.rate;
      cfg.telemetry = &tel;
      auto out = blas3::MmMultiEngine(cfg).run(a, b, n);
      r.values = std::move(out.c);
      r.report = out.report;
      for (const auto& f : out.per_fpga) {
        r.extra_hash = fnv_value(r.extra_hash, f.busy_cycles);
        r.extra_hash = fnv_value(r.extra_hash, f.blocks_computed);
        r.extra_hash = fnv_value(r.extra_hash, f.input_stall_cycles);
      }
      r.extra_hash = fnv_value(r.extra_hash, out.dram_words);
      r.extra_hash = fnv_value(r.extra_hash, out.link_words);
      break;
    }
    case Design::MmOnNode: {
      constexpr std::size_t n = 32;
      const auto a = rng.matrix(n, n);
      const auto b = rng.matrix(n, n);
      machine::NodeConfig ncfg;
      ncfg.clock_mhz = 130.0;
      ncfg.sram_bank_words = 1024;
      ncfg.dram_words = 4096;
      machine::ComputeNode node(ncfg);
      blas3::MmOnNodeConfig cfg;
      cfg.k = c.k;
      cfg.m = 8;
      cfg.b = 16;
      cfg.telemetry = &tel;
      auto out = blas3::MmOnNodeEngine(node, cfg).run(a, b, n);
      r.values = std::move(out.c);
      r.report = out.report;
      break;
    }
    case Design::MxvCol:
    case Design::BlockedTree:
    case Design::BlockedCol: {
      constexpr std::size_t rows = 64, cols = 24;
      const auto a = rng.matrix(rows, cols);
      const auto x = rng.vector(cols);
      blas2::MxvOutcome out;
      if (c.engine == Design::BlockedTree) {
        blas2::MxvTreeConfig cfg;
        cfg.k = c.k;
        cfg.mem_words_per_cycle = c.rate;
        cfg.telemetry = &tel;
        out = blas2::run_blocked_gemv_tree(cfg, 10, a, rows, cols, x);
      } else {
        blas2::MxvColConfig cfg;
        cfg.k = c.k;
        cfg.mem_words_per_cycle = c.rate;
        cfg.telemetry = &tel;
        out = c.engine == Design::MxvCol
                  ? blas2::MxvColEngine(cfg).run(a, rows, cols, x)
                  : blas2::run_blocked_gemv_col(cfg, 32, a, rows, cols, x);
      }
      r.values = std::move(out.y);
      r.report = out.report;
      break;
    }
    case Design::Shard: {
      constexpr std::size_t n = 48;
      const auto a = rng.matrix(n, n);
      const auto b = rng.matrix(n, n);
      host::ContextConfig cfg;
      cfg.telemetry = &tel;
      host::Runtime rt(cfg);
      machine::SystemConfig sys;
      sys.chassis_count = 3;
      sys.chassis.nodes = 2;
      host::ShardScheduler sched(rt, sys);
      auto out = sched.run(host::OpDesc::gemm(a, b, n), c.l);
      r.values = std::move(out.values);
      r.report = out.report;
      for (const host::ShardPiece& p : out.plan.pieces) {
        for (u64 v : {u64{p.index}, u64{p.chassis}, u64{p.node},
                      u64{p.row0}, u64{p.rows}, p.scatter_ready,
                      p.engine_cycles, p.done}) {
          r.extra_hash = fnv_value(r.extra_hash, v);
        }
      }
      r.extra_hash = fnv_value(r.extra_hash, out.plan.model_cycles);
      r.extra_hash = fnv_value(r.extra_hash, out.link_words);
      r.extra_hash = fnv_value(r.extra_hash, out.interchassis_words);
      break;
    }
  }
  r.names = tel.metrics().names();
  return r;
}

class ReportEngines : public ::testing::TestWithParam<EngineCase> {};

TEST_P(ReportEngines, PinnedReportBitsAndMetricNames) {
  expect_pinned(run_engine_case(GetParam()), GetParam().pins);
}

using E = Design;

INSTANTIATE_TEST_SUITE_P(
    Grid, ReportEngines,
    ::testing::Values(
        EngineCase{"mm_array_k4", E::MmArray, 4, 1, 4.0, 0,
                   {"mm-array k=4 m=8", 1091, 1091, 0, 8192, 0, 1280, 0, 130,
                    8285878411266425237ull, 14791045090370012788ull, kFnvBasis}},
        EngineCase{"mm_array_k8", E::MmArray, 8, 1, 4.0, 0,
                   {"mm-array k=8 m=8", 587, 587, 0, 8192, 0, 1280, 0, 130,
                    8206804182705291763ull, 14791045090370012788ull, kFnvBasis}},
        EngineCase{"mm_array_k4_starved", E::MmArray, 4, 1, 0.5, 1,
                   {"mm-array k=4 m=4", 4609, 4609, 0, 8192, 3569, 2304, 0, 130,
                    8285878411266425237ull, 14791045090370012788ull, kFnvBasis}},
        EngineCase{"mm_hier_l1_k4", E::MmHier, 4, 1, 0, 0,
                   {"mm-hier l=1 k=4 m=8 b=16", 8196, 8196, 0, 65536, 0, 16392, 5120,
                    130, 4760599749549325589ull, 15748451214257613343ull,
                    2873104633053033619ull}},
        EngineCase{"mm_hier_l2_k8", E::MmHier, 8, 2, 0, 0,
                   {"mm-hier l=2 k=8 m=8 b=16", 2560, 2064, 0, 65536, 496, 8256, 5120,
                    130, 10482598717871973349ull, 15748451214257613343ull,
                    684668777330156179ull}},
        EngineCase{"mm_hier_panel_k4", E::MmHier, 4, 1, 0, 1,
                   {"mm-hier l=1 k=4 m=8 b=16", 3076, 3076, 0, 24576, 0, 6152, 1920,
                    130, 1827037720470984892ull, 15748451214257613343ull,
                    2873104633053033619ull}},
        EngineCase{"mm_multi_l2_k4", E::MmMulti, 4, 2, 2.0, 0,
                   {"mm-multi l=2 k=4 m=8 b=24", 18592, 13824, 0, 221184, 288, 0, 11520,
                    130, 1338385304020458511ull, 2157557100284364522ull,
                    17637044319428979898ull}},
        EngineCase{"mm_multi_l3_k8_bw0_5", E::MmMulti, 8, 3, 0.5, 0,
                   {"mm-multi l=3 k=8 m=8 b=24", 19648, 4608, 0, 221184, 42048, 0,
                    11520, 130, 7923154200877919708ull, 2157557100284364522ull,
                    8688086284547228509ull}},
        EngineCase{"mm_on_node_k4", E::MmOnNode, 4, 1, 0, 0,
                   {"mm-on-node k=4 m=8 b=16", 8511, 8192, 0, 65536, 63, 8192, 5504,
                    130, 4760599749549325589ull, 2813764876064394806ull, kFnvBasis}},
        EngineCase{"mm_on_node_k8", E::MmOnNode, 8, 1, 0, 0,
                   {"mm-on-node k=8 m=8 b=16", 4415, 4096, 0, 65536, 63, 8192, 5504,
                    130, 4395445582997013367ull, 2813764876064394806ull, kFnvBasis}},
        EngineCase{"mxv_col_k2", E::MxvCol, 2, 1, 4.0, 0,
                   {"gemv-col k=2", 793, 793, 0, 3072, 0, 1624, 0, 170,
                    12066915359011914517ull, 13952952400359396270ull, kFnvBasis}},
        EngineCase{"mxv_col_k4_bw0_75", E::MxvCol, 4, 1, 0.75, 0,
                   {"gemv-col k=4", 2113, 2113, 0, 3072, 1704, 1624, 0, 170,
                    15639493495324346497ull, 13952952400359396270ull, kFnvBasis}},
        EngineCase{"blocked_tree_k4", E::BlockedTree, 4, 1, 4.0, 0,
                   {"gemv-tree-blocked k=4 b=10", 712, 712, 0, 3072, 0, 1984, 0, 164,
                    15178951275932617178ull, 9087595390167945390ull, kFnvBasis}},
        EngineCase{"blocked_col_k2", E::BlockedCol, 2, 1, 4.0, 0,
                   {"gemv-col-blocked k=2 b=32", 818, 818, 0, 3072, 0, 1648, 0, 170,
                    12066915359011914517ull, 13952952400359396270ull, kFnvBasis}},
        EngineCase{"shard_gemm_l1", E::Shard, 8, 1, 0, 0,
                   {"shard l=1 over 3 chassis [mm-hier l=1 k=8 m=8 b=48]", 13832, 13832,
                    0, 221184, 0, 27664, 6912, 130, 13314778079873131096ull,
                    14433207421257469321ull, 2256994483369602253ull}},
        EngineCase{"shard_gemm_l2", E::Shard, 8, 2, 0, 0,
                   {"shard l=2 over 3 chassis [mm-hier l=1 k=8 m=8 b=48]", 9318, 6920,
                    2398, 221184, 0, 27680, 6912, 130, 12044383093567490372ull,
                    14433207421257469321ull, 18079079187455876243ull}},
        EngineCase{"shard_gemm_l3", E::Shard, 8, 3, 0, 0,
                   {"shard l=3 over 3 chassis [mm-hier l=1 k=8 m=8 b=48]", 9211, 4616,
                    4595, 221184, 0, 27696, 6912, 130, 7923154200877919708ull,
                    14433207421257469321ull, 14663294214366256151ull}},
        EngineCase{"shard_gemm_l6", E::Shard, 8, 6, 0, 0,
                   {"shard l=6 over 3 chassis [mm-hier l=1 k=8 m=8 b=48]", 14296, 2312,
                    11984, 221184, 0, 27744, 6912, 130, 10353652552804647359ull,
                    14433207421257469321ull, 12365977211292541371ull}}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
