// End-to-end node-level GEMV tests: the full Table 4 pipeline (DMA staging
// through the RapidArray link, bank-striped streaming, y write-back) running
// against the real machine model.
#include <gtest/gtest.h>

#include "blas2/mxv_on_node.hpp"
#include "blas2/mxv_tree.hpp"
#include "common/random.hpp"
#include "host/reference.hpp"
#include "machine/node.hpp"

using namespace xd;
using blas2::NodeGemvConfig;
using blas2::NodeGemvEngine;

namespace {

machine::NodeConfig xd1_node(std::size_t dram_words = 2u << 20) {
  machine::NodeConfig cfg;
  cfg.clock_mhz = 164.0;
  cfg.dram_bytes_per_s = 1.3e9;  // the measured Table 4 staging rate
  cfg.dram_words = dram_words;
  return cfg;
}

}  // namespace

TEST(NodeGemv, SramResidentMatchesReference) {
  Rng rng(1);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  machine::ComputeNode node(xd1_node());
  NodeGemvEngine engine(node);
  const auto out = engine.run(a, n, n, x, /*from_dram=*/false);
  EXPECT_LT(host::max_abs_diff(out.y, host::ref_gemv(a, n, n, x)), 1e-10 * n);
  EXPECT_EQ(out.report.staging_cycles, 0u);
}

TEST(NodeGemv, BitIdenticalToChannelModelEngine) {
  // Same feed rate (one word per bank per cycle = 4/cycle) => identical
  // reduction-circuit timing => identical bits.
  Rng rng(2);
  const std::size_t n = 64;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);

  machine::ComputeNode node(xd1_node());
  NodeGemvEngine node_engine(node);
  const auto yn = node_engine.run(a, n, n, x, false);

  blas2::MxvTreeConfig tc;  // k = 4, 4 words/cycle
  const auto yc = blas2::MxvTreeEngine(tc).run(a, n, n, x);
  EXPECT_EQ(yn.y, yc.y);
}

TEST(NodeGemv, SingleBankBypassesTheAdderTree) {
  // One bank feeds one multiplier straight into the reduction circuit, the
  // same datapath as the channel engine at k = 1 and 1 word/cycle.
  Rng rng(4);
  const std::size_t n = 16;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);

  machine::NodeConfig cfg = xd1_node();
  cfg.sram_banks = 1;
  machine::ComputeNode node(cfg);
  const auto yn = NodeGemvEngine(node).run(a, n, n, x, false);

  blas2::MxvTreeConfig tc;
  tc.k = 1;
  tc.mem_words_per_cycle = 1.0;
  const auto yc = blas2::MxvTreeEngine(tc).run(a, n, n, x);
  EXPECT_EQ(yn.y, yc.y);
  EXPECT_EQ(yn.report.cycles, yc.report.cycles);
  EXPECT_EQ(yn.report.cycles, 503u);
}

TEST(NodeGemv, StagingDominatesFromDram) {
  // The Table 4 split at test scale: staging ~ n^2 words at ~1 word/cycle vs
  // compute at n^2/4 cycles -> staging is ~80% of the total.
  Rng rng(3);
  const std::size_t n = 256;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  machine::ComputeNode node(xd1_node());
  NodeGemvEngine engine(node);
  const auto out = engine.run(a, n, n, x, /*from_dram=*/true);
  EXPECT_LT(host::max_abs_diff(out.y, host::ref_gemv(a, n, n, x)), 1e-10 * n);

  const double frac = static_cast<double>(out.report.staging_cycles) /
                      static_cast<double>(out.report.cycles);
  EXPECT_GT(frac, 0.70);
  EXPECT_LT(frac, 0.85);
  // Achieved link bandwidth during staging ~ 1.3 GB/s.
  EXPECT_NEAR(node.dram_achieved_bytes_per_s() *
                  static_cast<double>(node.cycles()) /
                  static_cast<double>(out.report.staging_cycles),
              1.3e9, 0.15e9);
}

TEST(NodeGemv, Table4LatencyShapeAtFullScale) {
  // n = 1024, the exact Table 4 experiment: ~8 ms total, ~1.6 ms compute,
  // ~260 MFLOPS sustained at 164 MHz.
  Rng rng(4);
  const std::size_t n = 1024;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  machine::ComputeNode node(xd1_node());
  NodeGemvEngine engine(node);
  const auto out = engine.run(a, n, n, x, /*from_dram=*/true);

  EXPECT_NEAR(out.report.seconds() * 1e3, 8.0, 0.4);             // total ms
  EXPECT_NEAR(static_cast<double>(out.report.compute_cycles) /
                  (164e3),                                       // ms
              1.6, 0.1);
  EXPECT_NEAR(out.report.sustained_mflops(), 262.0, 8.0);
}

TEST(NodeGemv, RejectsUnalignedOrOversized) {
  Rng rng(5);
  machine::ComputeNode node(xd1_node());
  NodeGemvEngine engine(node);
  // cols not a multiple of the bank count
  EXPECT_THROW(engine.run(rng.matrix(8, 10), 8, 10, rng.vector(10), false),
               ConfigError);
  // matrix larger than the four 4 MB banks
  const std::size_t big = 2048;
  machine::NodeConfig tiny = xd1_node();
  tiny.sram_bank_words = 1024;
  machine::ComputeNode small_node(tiny);
  NodeGemvEngine small_engine(small_node);
  EXPECT_THROW(
      small_engine.run(rng.matrix(big, 64), big, 64, rng.vector(64), false),
      ConfigError);
}

TEST(NodeGemv, HandshakeAddsBoundedOverhead) {
  Rng rng(6);
  const std::size_t n = 128;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);

  machine::ComputeNode plain_node(xd1_node());
  const auto plain = NodeGemvEngine(plain_node).run(a, n, n, x, false);

  NodeGemvConfig hcfg;
  hcfg.with_handshake = true;
  machine::ComputeNode hs_node(xd1_node());
  const auto hs = NodeGemvEngine(hs_node, hcfg).run(a, n, n, x, false);

  EXPECT_EQ(plain.y, hs.y);  // control protocol never touches the data path
  EXPECT_GT(hs.report.cycles, plain.report.cycles);
  // Three register interactions plus one poll round: well under 1% here.
  EXPECT_LT(hs.report.cycles - plain.report.cycles, plain.report.cycles / 10);
}
