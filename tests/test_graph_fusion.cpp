// Op-graph fusion tests: GraphDesc structural validation, the chain
// partitioner's fusion decisions (CG-step and Jacobi-sweep chains, the
// SRAM capacity fallback), bit-identity of fused execution against per-op
// runs, cross-validation of the analytic fused-chain staging model against
// the cycle simulation, the separate graph-plan cache accounting, and
// submit_graph() concurrency.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.hpp"
#include "fp/softfloat.hpp"
#include "host/graph.hpp"
#include "host/plan.hpp"
#include "host/runtime.hpp"
#include "model/perf_model.hpp"
#include "telemetry/session.hpp"

using namespace xd;
using host::ContextConfig;
using host::GraphDesc;
using host::GraphOutcome;
using host::OpDesc;
using host::OperandSlot;
using host::Placement;
using host::Runtime;

namespace {

bool bits_equal(double a, double b) {
  return fp::to_bits(a) == fp::to_bits(b);
}

/// The CG step chain: y = A p on the GEMV engine feeding p . Ap on the dot
/// engine over slot B, with p shared as the dot's first operand — the graph
/// solver::cg_dense runs every iteration.
struct CgStepCase {
  std::vector<double> a, p;
  GraphDesc g;

  explicit CgStepCase(std::size_t n, Placement place, u64 seed = 42) {
    Rng rng(seed);
    a = rng.matrix(n, n);
    p = rng.vector(n);
    g.nodes.push_back({"ap", OpDesc::gemv(a, n, n, p, place), true});
    OpDesc pap;
    pap.kind = host::OpKind::Dot;
    pap.placement = place;
    pap.cols = n;
    pap.a = &p;  // b edge-fed from the GEMV
    g.nodes.push_back({"pap", pap, true});
    g.edges.push_back({0, 1, OperandSlot::B});
  }
};

}  // namespace

// ---- validation ------------------------------------------------------------

TEST(GraphDesc, ValidationRejectsStructuralErrors) {
  Rng rng(7);
  const auto u = rng.vector(8);
  const auto v = rng.vector(8);

  {
    GraphDesc g;  // empty
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // edge index out of range
    g.nodes.push_back({"d", OpDesc::dot(u, v), true});
    g.edges.push_back({0, 3, OperandSlot::A});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // self-edge
    g.nodes.push_back({"d", OpDesc::dot(u, v), true});
    g.edges.push_back({0, 0, OperandSlot::A});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // cycle between two dots
    OpDesc d;
    d.kind = host::OpKind::Dot;
    d.cols = 1;
    d.a = &u;
    g.nodes.push_back({"x", d, true});
    g.nodes.push_back({"y", d, true});
    g.edges.push_back({0, 1, OperandSlot::B});
    g.edges.push_back({1, 0, OperandSlot::B});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // duplicate (to, slot)
    g.nodes.push_back({"p", OpDesc::dot(u, v), true});
    OpDesc d;
    d.kind = host::OpKind::Dot;
    d.cols = 1;
    d.a = &u;  // wrong length too, but the duplicate check fires first
    g.nodes.push_back({"c", d, true});
    g.edges.push_back({0, 1, OperandSlot::B});
    g.edges.push_back({0, 1, OperandSlot::B});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // producer length 8 into a length-4 slot
    g.nodes.push_back({"ap", OpDesc::gemv(u, 8, 1, v, Placement::Sram), true});
    OpDesc d;
    d.kind = host::OpKind::Dot;
    d.cols = 4;
    d.a = &u;
    g.nodes.push_back({"c", d, true});
    g.edges.push_back({0, 1, OperandSlot::B});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // edge into a slot the consumer does not have (dot has no X)
    g.nodes.push_back({"p", OpDesc::gemv(u, 8, 1, v, Placement::Sram), true});
    g.nodes.push_back({"c", OpDesc::dot(u, v), true});
    g.edges.push_back({0, 1, OperandSlot::X});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // non-edge-fed operand missing
    OpDesc d;
    d.kind = host::OpKind::Dot;
    d.cols = 8;
    d.a = &u;  // b neither set nor edge-fed
    g.nodes.push_back({"d", d, true});
    EXPECT_THROW(g.validate(), ConfigError);
  }
  {
    GraphDesc g;  // well-formed two-node chain passes
    CgStepCase c(8, Placement::Dram);
    EXPECT_NO_THROW(c.g.validate());
  }
}

TEST(GraphDesc, TopoOrderIsStableLowestIndexFirst) {
  // Diamond: 0 -> {1, 2} -> 3, plus an independent node 4.
  Rng rng(9);
  const auto a = rng.matrix(6, 6);
  const auto x = rng.vector(6);
  GraphDesc g;
  for (int i = 0; i < 5; ++i) {
    OpDesc d;
    d.kind = host::OpKind::Gemv;
    d.rows = d.cols = 6;
    d.a = &a;
    d.x = (i == 0 || i == 4) ? &x : nullptr;
    g.nodes.push_back({"", d, true});
  }
  g.edges.push_back({0, 1, OperandSlot::X});
  g.edges.push_back({0, 2, OperandSlot::X});
  g.edges.push_back({1, 3, OperandSlot::X});
  const auto order = g.topo_order();
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(GraphDesc, SignatureKeysOperandSharing) {
  // dot(u, v) and dot(u, u) have identical shapes but different sharing
  // patterns, so they must plan (and cache) separately.
  Rng rng(11);
  const auto u = rng.vector(16);
  const auto v = rng.vector(16);
  GraphDesc g1, g2;
  g1.nodes.push_back({"d", OpDesc::dot(u, v, Placement::Dram), true});
  g2.nodes.push_back({"d", OpDesc::dot(u, u, Placement::Dram), true});
  EXPECT_NE(g1.signature(), g2.signature());

  // Same sharing structure with different vectors: identical signatures.
  GraphDesc g3;
  g3.nodes.push_back({"d", OpDesc::dot(v, v, Placement::Dram), true});
  EXPECT_EQ(g2.signature(), g3.signature());
}

TEST(GraphDesc, SignatureTextOfTheCgGraphsIsPinned) {
  // The plan cache keys graphs by this text: a rewrite of signature() must
  // keep it byte for byte. The two graphs cg_dense runs every iteration.
  const CgStepCase step(512, Placement::Dram);
  EXPECT_EQ(step.g.signature(), "g1;gemv:dram:tree:512x512:0:0:k:0,-,1,-,-,-;"
            "dot:dram:tree:0x512:0:0:k:1,-,-,-,-,-;|0>1:b;");
  Rng rng(13);
  const auto r = rng.vector(512), z = rng.vector(512);
  GraphDesc dots;
  dots.nodes.push_back({"d0", OpDesc::dot(r, z, Placement::Dram), true});
  dots.nodes.push_back({"d1", OpDesc::dot(r, r, Placement::Dram), true});
  EXPECT_EQ(dots.signature(), "g1;dot:dram:tree:0x512:0:0:k:0,1,-,-,-,-;"
            "dot:dram:tree:0x512:0:0:k:0,0,-,-,-,-;|");
  // Sram placement, a transient node and an edge into slot X.
  GraphDesc chain;
  chain.nodes.push_back({"y", OpDesc::gemv(step.a, 512, 512, r, Placement::Sram), false});
  OpDesc next = OpDesc::gemv(step.a, 512, 512, r, Placement::Sram);
  next.x = nullptr;
  chain.nodes.push_back({"z", next, true});
  chain.edges.push_back({0, 1, OperandSlot::X});
  EXPECT_EQ(chain.signature(),
            "g1;gemv:sram:tree:512x512:0:0:t:0,-,1,-,-,-;"
            "gemv:sram:tree:512x512:0:0:k:0,-,-,-,-,-;|0>1:x;");
  // Two-digit ordinals.
  std::vector<std::vector<double>> vs;
  for (int i = 0; i < 12; ++i) vs.push_back(rng.vector(3));
  GraphDesc wide;
  for (int i = 0; i < 12; i += 2) {
    wide.nodes.push_back({"d", OpDesc::dot(vs[i], vs[i + 1], Placement::Dram), true});
  }
  EXPECT_EQ(wide.signature(),
            "g1;dot:dram:tree:0x3:0:0:k:0,1,-,-,-,-;dot:dram:tree:0x3:0:0:k:2,3,-,-,-,-;"
            "dot:dram:tree:0x3:0:0:k:4,5,-,-,-,-;dot:dram:tree:0x3:0:0:k:6,7,-,-,-,-;"
            "dot:dram:tree:0x3:0:0:k:8,9,-,-,-,-;dot:dram:tree:0x3:0:0:k:10,11,-,-,-,-;|");
}

// ---- fusion: CG step chain -------------------------------------------------

TEST(GraphFusion, CgStepChainFusesAndMatchesPerOpBits) {
  const std::size_t n = 96;
  CgStepCase c(n, Placement::Dram);
  ContextConfig cfg;
  Runtime rt(cfg);
  const GraphOutcome go = rt.run_graph(c.g);

  ASSERT_EQ(go.nodes.size(), 2u);
  EXPECT_EQ(go.fused_edges, 1u);       // ap forwarded over SRAM
  EXPECT_EQ(go.shared_operands, 1u);   // p chain-resident for the dot
  EXPECT_GT(go.staging_saved_cycles, 0u);

  // Per-op reference: the same two ops, standalone.
  Runtime single(cfg);
  const auto gemv_ref = single.run(OpDesc::gemv(c.a, n, n, c.p, Placement::Dram));
  const auto dot_ref = single.run(OpDesc::dot(c.p, go.nodes[0].values,
                                              Placement::Dram));

  // Values bit-identical.
  ASSERT_EQ(go.nodes[0].values.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(bits_equal(go.nodes[0].values[i], gemv_ref.values[i]));
  }
  ASSERT_EQ(go.nodes[1].values.size(), 1u);
  EXPECT_TRUE(bits_equal(go.nodes[1].values[0], dot_ref.values[0]));

  // The GEMV still streams A and writes ap back (kept); the dot's staging
  // vanishes entirely — B is edge-fed, A (= p) is chain-resident.
  EXPECT_EQ(go.nodes[0].report.staging_cycles, gemv_ref.report.staging_cycles);
  EXPECT_EQ(go.nodes[1].report.staging_cycles, 0u);
  EXPECT_GT(dot_ref.report.staging_cycles, 0u);
  EXPECT_EQ(go.node_staging_saved[0], 0u);
  EXPECT_EQ(go.node_staging_saved[1], dot_ref.report.staging_cycles);

  // Engine compute untouched by fusion.
  EXPECT_EQ(go.nodes[0].report.cycles, gemv_ref.report.cycles);
  EXPECT_EQ(go.nodes[1].report.cycles - go.nodes[1].report.staging_cycles,
            dot_ref.report.cycles - dot_ref.report.staging_cycles);
}

TEST(GraphFusion, CgStepChainMatchesAnalyticModel) {
  const std::size_t n = 96;
  CgStepCase c(n, Placement::Dram);
  ContextConfig cfg;
  Runtime rt(cfg);
  const GraphOutcome go = rt.run_graph(c.g);

  Runtime single(cfg);
  const auto gemv_ref = single.run(OpDesc::gemv(c.a, n, n, c.p, Placement::Dram));
  const auto dot_ref = single.run(OpDesc::dot(c.p, go.nodes[0].values,
                                              Placement::Dram));

  // The analytic chain formulas (src/model) and the cycle simulation must
  // agree exactly on both the fused and the unfused staging budget.
  const double wpc_gemv =
      host::words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.gemv_clock_mhz);
  const double wpc_dot =
      host::words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.dot_clock_mhz);
  const auto chain = model::cg_step_chain(n, wpc_gemv, wpc_dot);

  const u64 sim_unfused =
      gemv_ref.report.staging_cycles + dot_ref.report.staging_cycles;
  const u64 sim_fused =
      go.nodes[0].report.staging_cycles + go.nodes[1].report.staging_cycles;
  EXPECT_EQ(model::unfused_chain_staging_cycles(chain), sim_unfused);
  EXPECT_EQ(model::fused_chain_staging_cycles(chain), sim_fused);
  EXPECT_EQ(sim_unfused - sim_fused,
            go.node_staging_saved[0] + go.node_staging_saved[1]);
  EXPECT_LT(model::fused_chain_staging_cycles(chain),
            model::unfused_chain_staging_cycles(chain));
}

// ---- fusion: Jacobi sweep --------------------------------------------------

TEST(GraphFusion, JacobiSweepSharesTheMatrixAndMatchesModel) {
  const std::size_t n = 64;
  const std::size_t systems = 4;
  Rng rng(5);
  const auto r = rng.matrix(n, n);
  std::vector<std::vector<double>> xs;
  for (std::size_t s = 0; s < systems; ++s) xs.push_back(rng.vector(n));

  GraphDesc g;
  for (std::size_t s = 0; s < systems; ++s) {
    g.nodes.push_back(
        {cat("sys", s), OpDesc::gemv(r, n, n, xs[s], Placement::Dram), true});
  }

  ContextConfig cfg;
  Runtime rt(cfg);
  const GraphOutcome go = rt.run_graph(g);

  // R staged once: systems-1 shared-operand wins, no edges to fuse.
  EXPECT_EQ(go.fused_edges, 0u);
  EXPECT_EQ(go.shared_operands, systems - 1);
  EXPECT_GT(go.staging_saved_cycles, 0u);

  Runtime single(cfg);
  u64 sim_unfused = 0;
  for (std::size_t s = 0; s < systems; ++s) {
    const auto ref = single.run(OpDesc::gemv(r, n, n, xs[s], Placement::Dram));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(bits_equal(go.nodes[s].values[i], ref.values[i]));
    }
    sim_unfused += ref.report.staging_cycles;
  }
  u64 sim_fused = 0;
  for (const auto& node : go.nodes) sim_fused += node.report.staging_cycles;

  const double wpc =
      host::words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.gemv_clock_mhz);
  const auto chain = model::jacobi_sweep_chain(n, systems, wpc);
  EXPECT_EQ(model::unfused_chain_staging_cycles(chain), sim_unfused);
  EXPECT_EQ(model::fused_chain_staging_cycles(chain), sim_fused);
}

// ---- capacity fallback -----------------------------------------------------

TEST(GraphFusion, CapacityFallbackStagesEveryEdgeThroughDram) {
  const std::size_t n = 96;
  CgStepCase c(n, Placement::Dram);
  ContextConfig cfg;
  // 64 words of SRAM: the forwarding bank needs 2n = 192 > 64/4 words and
  // nothing can stay resident, so the planner must fall back to per-op
  // DRAM staging — correct values, zero savings.
  cfg.sram_capacity_words = 64;
  Runtime rt(cfg);
  const GraphOutcome go = rt.run_graph(c.g);

  EXPECT_EQ(go.fused_edges, 0u);
  EXPECT_EQ(go.shared_operands, 0u);
  EXPECT_EQ(go.staging_saved_cycles, 0u);

  Runtime single(cfg);
  const auto gemv_ref = single.run(OpDesc::gemv(c.a, n, n, c.p, Placement::Dram));
  const auto dot_ref = single.run(OpDesc::dot(c.p, go.nodes[0].values,
                                              Placement::Dram));
  EXPECT_EQ(go.nodes[0].report.cycles, gemv_ref.report.cycles);
  EXPECT_EQ(go.nodes[1].report.cycles, dot_ref.report.cycles);
  EXPECT_EQ(go.nodes[1].report.staging_cycles, dot_ref.report.staging_cycles);
  EXPECT_TRUE(bits_equal(go.nodes[1].values[0], dot_ref.values[0]));
}

TEST(GraphFusion, SramPlacementHasZeroStagingEitherWay) {
  const std::size_t n = 48;
  CgStepCase c(n, Placement::Sram);
  Runtime rt(ContextConfig{});
  const GraphOutcome go = rt.run_graph(c.g);
  EXPECT_EQ(go.staging_saved_cycles, 0u);
  for (const auto& node : go.nodes) {
    EXPECT_EQ(node.report.staging_cycles, 0u);
  }
}

// ---- plan cache ------------------------------------------------------------

TEST(GraphPlanCache, GraphEntriesAccountedSeparately) {
  CgStepCase c(32, Placement::Dram);
  ContextConfig cfg;
  Runtime rt(cfg);

  rt.run_graph(c.g);
  EXPECT_EQ(rt.plan_cache().graph_misses(), 1u);
  EXPECT_EQ(rt.plan_cache().graph_hits(), 0u);
  EXPECT_EQ(rt.plan_cache().graph_size(), 1u);

  rt.run_graph(c.g);
  EXPECT_EQ(rt.plan_cache().graph_hits(), 1u);
  EXPECT_EQ(rt.plan_cache().graph_size(), 1u);

  // Graph traffic must not dilute the single-op hit-rate telemetry: node
  // plans are built directly, never through the single-op LRU.
  EXPECT_EQ(rt.plan_cache().hits(), 0u);
  EXPECT_EQ(rt.plan_cache().misses(), 0u);
  EXPECT_EQ(rt.plan_cache().size(), 0u);

  // A structurally different graph is a separate entry.
  CgStepCase c2(48, Placement::Dram);
  rt.run_graph(c2.g);
  EXPECT_EQ(rt.plan_cache().graph_misses(), 2u);
  EXPECT_EQ(rt.plan_cache().graph_size(), 2u);
}

TEST(GraphPlanCache, PublishesGraphGauges) {
  CgStepCase c(24, Placement::Dram);
  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  rt.run_graph(c.g);
  rt.run_graph(c.g);
  EXPECT_DOUBLE_EQ(tel.metrics().gauge("host.plan.graphs").value(), 1.0);
  EXPECT_DOUBLE_EQ(tel.metrics().gauge("host.plan.graph_misses").value(), 1.0);
  EXPECT_DOUBLE_EQ(tel.metrics().gauge("host.plan.graph_hits").value(), 1.0);
  // Single-op gauges stay untouched by graph traffic.
  EXPECT_DOUBLE_EQ(tel.metrics().gauge("host.plan.misses").value(), 0.0);
}

// ---- concurrency -----------------------------------------------------------

TEST(GraphFusion, SubmitGraphMatchesRunGraph) {
  CgStepCase c(64, Placement::Dram);
  Runtime rt(ContextConfig{});
  const GraphOutcome want = rt.run_graph(c.g);
  auto fut = rt.submit_graph(c.g);
  const GraphOutcome got = fut.get();
  ASSERT_EQ(got.nodes.size(), want.nodes.size());
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    ASSERT_EQ(got.nodes[i].values.size(), want.nodes[i].values.size());
    for (std::size_t j = 0; j < want.nodes[i].values.size(); ++j) {
      EXPECT_TRUE(bits_equal(got.nodes[i].values[j], want.nodes[i].values[j]));
    }
    EXPECT_EQ(got.nodes[i].report.cycles, want.nodes[i].report.cycles);
  }
  EXPECT_EQ(got.staging_saved_cycles, want.staging_saved_cycles);
}
