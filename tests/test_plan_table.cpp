// Plan table: every field build_plan() emits, pinned row by row.
//
// One row per (configuration, op kind, shape, placement, arch, tune policy):
// the engine configuration with all of its fields and engine_signature(),
// the staging cycles and words, panel edge, on-chip capacity, blocked-GEMV
// flag, schedule-slot presence and the TuneSummary — or the ConfigError a
// key is refused with. Every op kind x placement x arch is covered under
// Fixed and Model, plus row-panel GEMM keys, GEMV shapes above the on-chip
// x capacity, a multi-FPGA, a small-BRAM and a five-bank configuration.
// The Probe policy is pinned per candidate for one GEMV and one GEMM key,
// and the graph planner's per-node staging budgets for the CG-step,
// Jacobi-sweep, capacity-fallback and one random-edge graph.
//
// A rewrite of the plan layer must reproduce every row byte for byte. On a
// mismatch the test prints the whole actual table in source form.
//
// PlanBuilder tests the builder's refusal of zero GEMM knobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "host/plan.hpp"
#include "host/tuner.hpp"
#include "testing/case.hpp"

using namespace xd;
using host::ContextConfig;
using host::GemvArch;
using host::OpKind;
using host::Placement;
using host::PlanKey;
using host::TunePolicy;

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Every field of the engine configuration (the telemetry and schedule
/// pointers are patched in at run time and always null in a plan).
std::string engine_text(const host::EngineConfig& engine) {
  struct Visitor {
    std::string operator()(const blas1::DotConfig& c) const {
      return cat("as=", c.adder_stages, " ms=", c.multiplier_stages,
                 " wpc=", num(c.mem_words_per_cycle), " clk=", num(c.clock_mhz),
                 c.telemetry || c.schedule ? " PTR" : "");
    }
    std::string operator()(const blas2::MxvTreeConfig& c) const {
      return cat("as=", c.adder_stages, " ms=", c.multiplier_stages,
                 " wpc=", num(c.mem_words_per_cycle), " clk=", num(c.clock_mhz),
                 c.telemetry || c.schedule ? " PTR" : "");
    }
    std::string operator()(const blas2::MxvColConfig& c) const {
      return cat("as=", c.adder_stages, " ms=", c.multiplier_stages,
                 " wpc=", num(c.mem_words_per_cycle), " clk=", num(c.clock_mhz),
                 c.telemetry ? " PTR" : "");
    }
    std::string operator()(const blas2::SpmxvConfig& c) const {
      return cat("as=", c.adder_stages, " ms=", c.multiplier_stages,
                 " epc=", num(c.mem_elements_per_cycle),
                 " clk=", num(c.clock_mhz), c.telemetry ? " PTR" : "");
    }
    std::string operator()(const blas3::MmArrayConfig& c) const {
      return cat("as=", c.adder_stages, " ms=", c.multiplier_stages,
                 " wpc=", num(c.mem_words_per_cycle), " clk=", num(c.clock_mhz),
                 " cst=", c.c_storage_words, c.telemetry ? " PTR" : "");
    }
    std::string operator()(const blas3::MmHierConfig& c) const {
      return cat("as=", c.adder_stages, " ms=", c.multiplier_stages,
                 " clk=", num(c.clock_mhz),
                 " dram=", num(c.dram_words_per_cycle),
                 " link=", num(c.link_words_per_cycle),
                 c.telemetry ? " PTR" : "");
    }
    std::string operator()(const blas3::MmMultiConfig& c) const {
      return cat("clk=", num(c.clock_mhz),
                 " dram=", num(c.dram_words_per_cycle),
                 " link=", num(c.link_words_per_cycle),
                 c.telemetry ? " PTR" : "");
    }
  };
  return cat(host::engine_signature(engine), " [",
             std::visit(Visitor{}, engine), "]");
}

std::string plan_text(const ContextConfig& cfg, const PlanKey& key) {
  try {
    const host::Plan p = host::build_plan(cfg, key);
    const host::TuneSummary& t = p.tune;
    return cat(engine_text(p.engine), " stg=", p.staging_cycles,
               " dw=", num(p.dram_words), " pe=", p.panel_edge,
               " cap=", p.onchip_capacity, " blk=", p.blocked_gemv ? 1 : 0,
               " sch=", p.schedule ? 1 : 0, " tune=", t.tuned ? 1 : 0, ",",
               t.candidates, ",", t.pruned, ",", t.probed, ",",
               t.probe_cycles, ",'", t.chosen, "'",
               p.key == key ? "" : " KEY-MISMATCH");
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    return cat("error: ", what.substr(0, what.find('\n')));
  }
}

const char* policy_text(TunePolicy p) {
  return host::tune_policy_name(p);
}

struct Shape {
  OpKind kind;
  std::size_t rows, cols, n, batch;
};

std::vector<std::string> plan_rows() {
  ContextConfig base;
  ContextConfig l2;
  l2.mm_l = 2;
  ContextConfig small_bram;
  small_bram.device.bram_bits = 64 * 600;  // 600 words on chip
  ContextConfig banks5;
  banks5.sram_banks = 5;

  const std::vector<Shape> shapes = {
      {OpKind::Dot, 0, 2048, 0, 0},
      {OpKind::Dot, 0, 0, 0, 0},
      {OpKind::DotBatch, 0, 0, 0, 3},
      {OpKind::Gemv, 512, 512, 0, 0},
      {OpKind::Gemv, 64, 70000, 0, 0},  // x above the on-chip capacity
      {OpKind::GemvAuto, 512, 512, 0, 0},
      {OpKind::GemvAuto, 64, 70000, 0, 0},
      {OpKind::Spmxv, 512, 512, 0, 0},
      {OpKind::Spmxv, 64, 70000, 0, 0},
      {OpKind::Gemm, 0, 0, 512, 0},
      {OpKind::Gemm, 0, 0, 96, 0},      // panel edge chosen below mm_b
      {OpKind::Gemm, 0, 0, 2048, 0},
      {OpKind::Gemm, 0, 0, 12, 0},      // no panel edge tiles n
      {OpKind::Gemm, 32, 0, 192, 0},    // row-panel (shard) keys
      {OpKind::Gemm, 16, 0, 96, 0},
      {OpKind::GemmArray, 0, 0, 64, 0},
      {OpKind::GemmMulti, 0, 0, 64, 0},
      {OpKind::GemmMulti, 0, 0, 1024, 0},
  };

  std::vector<std::string> rows;
  const auto add = [&rows](const char* cfg_name, const ContextConfig& cfg,
                           const Shape& s, Placement place, GemvArch arch,
                           TunePolicy tune) {
    PlanKey key;
    key.kind = s.kind;
    key.rows = s.rows;
    key.cols = s.cols;
    key.n = s.n;
    key.batch = s.batch;
    key.placement = place;
    key.arch = arch;
    key.tune = tune;
    rows.push_back(cat(cfg_name, ' ', host::op_kind_name(s.kind), ' ',
                       s.rows, 'x', s.cols, " n=", s.n, " b=", s.batch, ' ',
                       host::placement_name(place), ' ',
                       host::gemv_arch_name(arch), ' ', policy_text(tune),
                       " -> ", plan_text(cfg, key)));
  };

  for (const Shape& s : shapes) {
    for (TunePolicy tune : {TunePolicy::Fixed, TunePolicy::Model}) {
      for (Placement place : {Placement::Sram, Placement::Dram}) {
        for (GemvArch arch : {GemvArch::Tree, GemvArch::Column}) {
          add("base", base, s, place, arch, tune);
        }
      }
    }
  }
  // Probe-policy plans: the TuneSummary carries the probe totals.
  add("base", base, {OpKind::Gemv, 512, 512, 0, 0}, Placement::Dram,
      GemvArch::Tree, TunePolicy::Probe);
  add("base", base, {OpKind::Gemm, 0, 0, 64, 0}, Placement::Sram,
      GemvArch::Tree, TunePolicy::Probe);

  for (TunePolicy tune : {TunePolicy::Fixed, TunePolicy::Model}) {
    for (const Shape& s : std::vector<Shape>{{OpKind::Gemm, 0, 0, 512, 0},
                                             {OpKind::Gemm, 0, 0, 96, 0},
                                             {OpKind::Gemm, 0, 0, 60, 0},
                                             {OpKind::Gemm, 32, 0, 192, 0},
                                             {OpKind::GemmMulti, 0, 0, 64, 0},
                                             {OpKind::GemmArray, 0, 0, 64, 0}}) {
      add("l2", l2, s, Placement::Sram, GemvArch::Tree, tune);
    }
    for (const Shape& s : std::vector<Shape>{{OpKind::GemvAuto, 64, 900, 0, 0},
                                             {OpKind::GemvAuto, 64, 64, 0, 0},
                                             {OpKind::Spmxv, 64, 900, 0, 0},
                                             {OpKind::Spmxv, 64, 64, 0, 0},
                                             {OpKind::Gemv, 64, 900, 0, 0},
                                             {OpKind::Dot, 0, 900, 0, 0}}) {
      add("small-bram", small_bram, s, Placement::Dram, GemvArch::Tree, tune);
    }
    for (GemvArch arch : {GemvArch::Tree, GemvArch::Column}) {
      add("banks5", banks5, {OpKind::Gemv, 2048, 2048, 0, 0}, Placement::Dram,
          arch, tune);
    }
  }
  return rows;
}

/// Per-candidate probe cycles and the winner of one Probe-policy tuning.
std::vector<std::string> probe_rows(const PlanKey& key) {
  const ContextConfig cfg;
  const host::TuneResult tr = host::tune_op(cfg, key);
  std::vector<std::string> rows;
  rows.push_back(cat(host::op_kind_name(key.kind), " considered=",
                     tr.considered, " feasible=", tr.feasible,
                     " pruned=", tr.pruned, " probed=", tr.probed,
                     " probe_cycles=", tr.probe_cycles,
                     " winner=", tr.winner() ? tr.winner()->name() : "none"));
  for (const host::TuneCandidate& c : tr.ranked) {
    if (c.probe_cycles == 0 && !c.chosen) continue;
    rows.push_back(cat("  ", c.name(), " model=", c.model_cycles,
                       " probe=", c.probe_cycles,
                       " probe_s=", num(c.probe_seconds),
                       c.chosen ? " chosen" : ""));
  }
  return rows;
}

/// Staging budgets and fusion decisions of one graph plan, built from a
/// fuzz corpus line so the random-edge DAG is reproducible.
std::vector<std::string> graph_rows(const std::string& line, TunePolicy tune) {
  const xd::testing::FuzzCase fc = xd::testing::FuzzCase::from_line(line);
  xd::testing::CaseData data;
  xd::testing::materialize(fc, data);
  ContextConfig cfg = fc.config();
  cfg.tune = tune;
  const host::GraphPlan gp = host::build_graph_plan(cfg, data.graph);
  std::vector<std::string> rows;
  std::string order, chains, fused;
  for (std::size_t v : gp.order) order += cat(v, ',');
  for (int c : gp.chain_of) chains += cat(c, ',');
  for (bool f : gp.edge_fused) fused += f ? '1' : '0';
  rows.push_back(cat(fc.to_line(), ' ', policy_text(tune),
                     " saved=", gp.staging_saved_cycles,
                     " saved_w=", num(gp.staging_saved_words),
                     " fused_edges=", gp.fused_edges,
                     " shared=", gp.shared_operands, " chains=", gp.chains,
                     " order=", order, " chain_of=", chains,
                     " edge_fused=", fused));
  for (std::size_t i = 0; i < gp.staging.size(); ++i) {
    const host::NodeStaging& st = gp.staging[i];
    rows.push_back(cat("  node ", i, ' ',
                       engine_text(gp.node_plans[i]->engine),
                       " fused=", st.fused_cycles, '/', num(st.fused_words),
                       " unfused=", st.unfused_cycles, '/',
                       num(st.unfused_words),
                       " plan_stg=", gp.node_plans[i]->staging_cycles));
  }
  return rows;
}

/// Compare row by row; on any mismatch print the full actual table as C++
/// string literals, ready to paste over the expected one.
void expect_rows(const std::vector<std::string>& actual,
                 const std::vector<std::string>& expected) {
  bool same = actual.size() == expected.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i) {
    same = actual[i] == expected[i];
  }
  if (same) return;
  std::string table;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const bool row_ok = i < expected.size() && actual[i] == expected[i];
    if (!row_ok) {
      ADD_FAILURE() << "row " << i << "\n  actual:   " << actual[i]
                    << "\n  expected: "
                    << (i < expected.size() ? expected[i] : "<none>");
    }
    std::string literal;
    for (char ch : actual[i]) {
      if (ch == '"' || ch == '\\') literal += '\\';
      literal += ch;
    }
    table += "      \"" + literal + "\",\n";
  }
  if (expected.size() > actual.size()) {
    ADD_FAILURE() << expected.size() - actual.size() << " expected rows missing";
  }
  ADD_FAILURE() << "actual table:\n" << table;
}

}  // namespace

TEST(PlanTable, EveryKeyUnderFixedModelAndProbe) {
  const std::vector<std::string> expected = {
      "base dot 0x2048 n=0 b=0 sram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x2048 n=0 b=0 sram col fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x2048 n=0 b=0 dram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=4286 dw=4096 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x2048 n=0 b=0 dram col fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=4286 dw=4096 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x2048 n=0 b=0 sram tree model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot 0x2048 n=0 b=0 sram col model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot 0x2048 n=0 b=0 dram tree model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=4286 dw=4096 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot 0x2048 n=0 b=0 dram col model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=4286 dw=4096 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot 0x0 n=0 b=0 sram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x0 n=0 b=0 sram col fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x0 n=0 b=0 dram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x0 n=0 b=0 dram col fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot 0x0 n=0 b=0 sram tree model -> dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=1'",
      "base dot 0x0 n=0 b=0 sram col model -> dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=1'",
      "base dot 0x0 n=0 b=0 dram tree model -> dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=1'",
      "base dot 0x0 n=0 b=0 dram col model -> dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=1'",
      "base dot_batch 0x0 n=0 b=3 sram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot_batch 0x0 n=0 b=3 sram col fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot_batch 0x0 n=0 b=3 dram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot_batch 0x0 n=0 b=3 dram col fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base dot_batch 0x0 n=0 b=3 sram tree model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot_batch 0x0 n=0 b=3 sram col model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot_batch 0x0 n=0 b=3 dram tree model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base dot_batch 0x0 n=0 b=3 dram col model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "base gemv 512x512 n=0 b=0 sram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv 512x512 n=0 b=0 sram col fixed -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemv 512x512 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=265081 dw=262656 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv 512x512 n=0 b=0 dram col fixed -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=265081 dw=262656 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemv 512x512 n=0 b=0 sram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,11,5,0,0,'gemv-tree k=4'",
      "base gemv 512x512 n=0 b=0 sram col model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=1,11,5,0,0,'gemv-tree k=4'",
      "base gemv 512x512 n=0 b=0 dram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=265081 dw=262656 pe=0 cap=0 blk=0 sch=1 tune=1,11,5,0,0,'gemv-tree k=4'",
      "base gemv 512x512 n=0 b=0 dram col model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=265081 dw=262656 pe=0 cap=0 blk=0 sch=1 tune=1,11,5,0,0,'gemv-tree k=4'",
      "base gemv 64x70000 n=0 b=0 sram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv 64x70000 n=0 b=0 sram col fixed -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemv 64x70000 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=4521419 dw=4480064 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv 64x70000 n=0 b=0 dram col fixed -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=4521419 dw=4480064 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemv 64x70000 n=0 b=0 sram tree model -> gemv-col k=3 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,11,8,0,0,'gemv-col k=3'",
      "base gemv 64x70000 n=0 b=0 sram col model -> gemv-col k=3 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,11,8,0,0,'gemv-col k=3'",
      "base gemv 64x70000 n=0 b=0 dram tree model -> gemv-col k=3 [as=14 ms=11 wpc=4 clk=164] stg=4521419 dw=4480064 pe=0 cap=0 blk=0 sch=0 tune=1,11,8,0,0,'gemv-col k=3'",
      "base gemv 64x70000 n=0 b=0 dram col model -> gemv-col k=3 [as=14 ms=11 wpc=4 clk=164] stg=4521419 dw=4480064 pe=0 cap=0 blk=0 sch=0 tune=1,11,8,0,0,'gemv-col k=3'",
      "base gemv_auto 512x512 n=0 b=0 sram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv_auto 512x512 n=0 b=0 sram col fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv_auto 512x512 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv_auto 512x512 n=0 b=0 dram col fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=0,0,0,0,0,''",
      "base gemv_auto 512x512 n=0 b=0 sram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 512x512 n=0 b=0 sram col model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 512x512 n=0 b=0 dram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 512x512 n=0 b=0 dram col model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=1 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 64x70000 n=0 b=0 sram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=0,0,0,0,0,''",
      "base gemv_auto 64x70000 n=0 b=0 sram col fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=0,0,0,0,0,''",
      "base gemv_auto 64x70000 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=0,0,0,0,0,''",
      "base gemv_auto 64x70000 n=0 b=0 dram col fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=0,0,0,0,0,''",
      "base gemv_auto 64x70000 n=0 b=0 sram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 64x70000 n=0 b=0 sram col model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 64x70000 n=0 b=0 dram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base gemv_auto 64x70000 n=0 b=0 dram col model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=1 sch=0 tune=1,5,2,0,0,'gemv-tree k=4'",
      "base spmxv 512x512 n=0 b=0 sram tree fixed -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base spmxv 512x512 n=0 b=0 sram col fixed -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base spmxv 512x512 n=0 b=0 dram tree fixed -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base spmxv 512x512 n=0 b=0 dram col fixed -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base spmxv 512x512 n=0 b=0 sram tree model -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=1,4,1,0,0,'spmxv k=4'",
      "base spmxv 512x512 n=0 b=0 sram col model -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=1,4,1,0,0,'spmxv k=4'",
      "base spmxv 512x512 n=0 b=0 dram tree model -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=1,4,1,0,0,'spmxv k=4'",
      "base spmxv 512x512 n=0 b=0 dram col model -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=65016 blk=0 sch=0 tune=1,4,1,0,0,'spmxv k=4'",
      "base spmxv 64x70000 n=0 b=0 sram tree fixed -> error: SpMXV: x does not fit the device's on-chip memory",
      "base spmxv 64x70000 n=0 b=0 sram col fixed -> error: SpMXV: x does not fit the device's on-chip memory",
      "base spmxv 64x70000 n=0 b=0 dram tree fixed -> error: SpMXV: x does not fit the device's on-chip memory",
      "base spmxv 64x70000 n=0 b=0 dram col fixed -> error: SpMXV: x does not fit the device's on-chip memory",
      "base spmxv 64x70000 n=0 b=0 sram tree model -> error: tuner: no feasible design for spmxv",
      "base spmxv 64x70000 n=0 b=0 sram col model -> error: tuner: no feasible design for spmxv",
      "base spmxv 64x70000 n=0 b=0 dram tree model -> error: tuner: no feasible design for spmxv",
      "base spmxv 64x70000 n=0 b=0 dram col model -> error: tuner: no feasible design for spmxv",
      "base gemm 0x0 n=512 b=0 sram tree fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=512 b=0 sram col fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=512 b=0 dram tree fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=512 b=0 dram col fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=512 b=0 sram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,16,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=512 b=0 sram col model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,16,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=512 b=0 dram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,16,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=512 b=0 dram col model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,16,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=96 b=0 sram tree fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=96 b=0 sram col fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=96 b=0 dram tree fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=96 b=0 dram col fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=96 b=0 sram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,18,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=96 b=0 sram col model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,18,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=96 b=0 dram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,18,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=96 b=0 dram col model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,18,0,0,'mm-array k=8 m=8'",
      "base gemm 0x0 n=2048 b=0 sram tree fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=2048 b=0 sram col fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=2048 b=0 dram tree fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=2048 b=0 dram col fixed -> mm-hier l=1 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 0x0 n=2048 b=0 sram tree model -> mm-hier l=1 k=8 m=8 b=1024 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,40,28,0,0,'mm-hier l=1 k=8 m=8 b=1024'",
      "base gemm 0x0 n=2048 b=0 sram col model -> mm-hier l=1 k=8 m=8 b=1024 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,40,28,0,0,'mm-hier l=1 k=8 m=8 b=1024'",
      "base gemm 0x0 n=2048 b=0 dram tree model -> mm-hier l=1 k=8 m=8 b=1024 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,40,28,0,0,'mm-hier l=1 k=8 m=8 b=1024'",
      "base gemm 0x0 n=2048 b=0 dram col model -> mm-hier l=1 k=8 m=8 b=1024 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,40,28,0,0,'mm-hier l=1 k=8 m=8 b=1024'",
      "base gemm 0x0 n=12 b=0 sram tree fixed -> error: no SRAM panel edge tiles n=12 with m=8, l=1 (pad the matrices or use the compat layer)",
      "base gemm 0x0 n=12 b=0 sram col fixed -> error: no SRAM panel edge tiles n=12 with m=8, l=1 (pad the matrices or use the compat layer)",
      "base gemm 0x0 n=12 b=0 dram tree fixed -> error: no SRAM panel edge tiles n=12 with m=8, l=1 (pad the matrices or use the compat layer)",
      "base gemm 0x0 n=12 b=0 dram col fixed -> error: no SRAM panel edge tiles n=12 with m=8, l=1 (pad the matrices or use the compat layer)",
      "base gemm 0x0 n=12 b=0 sram tree model -> mm-array k=2 m=4 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,36,0,0,'mm-array k=2 m=4'",
      "base gemm 0x0 n=12 b=0 sram col model -> mm-array k=2 m=4 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,36,0,0,'mm-array k=2 m=4'",
      "base gemm 0x0 n=12 b=0 dram tree model -> mm-array k=2 m=4 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,36,0,0,'mm-array k=2 m=4'",
      "base gemm 0x0 n=12 b=0 dram col model -> mm-array k=2 m=4 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,36,0,0,'mm-array k=2 m=4'",
      "base gemm 32x0 n=192 b=0 sram tree fixed -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 32x0 n=192 b=0 sram col fixed -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 32x0 n=192 b=0 dram tree fixed -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 32x0 n=192 b=0 dram col fixed -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 32x0 n=192 b=0 sram tree model -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-hier l=1 k=8 m=8 b=192'",
      "base gemm 32x0 n=192 b=0 sram col model -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-hier l=1 k=8 m=8 b=192'",
      "base gemm 32x0 n=192 b=0 dram tree model -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-hier l=1 k=8 m=8 b=192'",
      "base gemm 32x0 n=192 b=0 dram col model -> mm-hier l=1 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-hier l=1 k=8 m=8 b=192'",
      "base gemm 16x0 n=96 b=0 sram tree fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 16x0 n=96 b=0 sram col fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 16x0 n=96 b=0 dram tree fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 16x0 n=96 b=0 dram col fixed -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm 16x0 n=96 b=0 sram tree model -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=1,20,9,0,0,'mm-hier l=1 k=8 m=8 b=96'",
      "base gemm 16x0 n=96 b=0 sram col model -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=1,20,9,0,0,'mm-hier l=1 k=8 m=8 b=96'",
      "base gemm 16x0 n=96 b=0 dram tree model -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=1,20,9,0,0,'mm-hier l=1 k=8 m=8 b=96'",
      "base gemm 16x0 n=96 b=0 dram col model -> mm-hier l=1 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=1,20,9,0,0,'mm-hier l=1 k=8 m=8 b=96'",
      "base gemm_array 0x0 n=64 b=0 sram tree fixed -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_array 0x0 n=64 b=0 sram col fixed -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_array 0x0 n=64 b=0 dram tree fixed -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_array 0x0 n=64 b=0 dram col fixed -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_array 0x0 n=64 b=0 sram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-array k=8 m=8'",
      "base gemm_array 0x0 n=64 b=0 sram col model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-array k=8 m=8'",
      "base gemm_array 0x0 n=64 b=0 dram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-array k=8 m=8'",
      "base gemm_array 0x0 n=64 b=0 dram col model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-array k=8 m=8'",
      "base gemm_multi 0x0 n=64 b=0 sram tree fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=64 b=0 sram col fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=64 b=0 dram tree fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=64 b=0 dram col fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=64 b=0 sram tree model -> mm-multi l=1 k=8 m=8 b=64 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=64 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=64'",
      "base gemm_multi 0x0 n=64 b=0 sram col model -> mm-multi l=1 k=8 m=8 b=64 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=64 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=64'",
      "base gemm_multi 0x0 n=64 b=0 dram tree model -> mm-multi l=1 k=8 m=8 b=64 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=64 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=64'",
      "base gemm_multi 0x0 n=64 b=0 dram col model -> mm-multi l=1 k=8 m=8 b=64 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=64 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=64'",
      "base gemm_multi 0x0 n=1024 b=0 sram tree fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=1024 b=0 sram col fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=1024 b=0 dram tree fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=1024 b=0 dram col fixed -> mm-multi l=1 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "base gemm_multi 0x0 n=1024 b=0 sram tree model -> mm-multi l=1 k=8 m=8 b=1024 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=1024'",
      "base gemm_multi 0x0 n=1024 b=0 sram col model -> mm-multi l=1 k=8 m=8 b=1024 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=1024'",
      "base gemm_multi 0x0 n=1024 b=0 dram tree model -> mm-multi l=1 k=8 m=8 b=1024 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=1024'",
      "base gemm_multi 0x0 n=1024 b=0 dram col model -> mm-multi l=1 k=8 m=8 b=1024 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=1024 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-multi l=1 k=8 m=8 b=1024'",
      "base gemv 512x512 n=0 b=0 dram tree probe -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=265081 dw=262656 pe=0 cap=0 blk=0 sch=1 tune=1,11,5,3,71478,'gemv-tree k=4'",
      "base gemm 0x0 n=64 b=0 sram tree probe -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,40,16,3,99537,'mm-array k=8 m=8'",
      "l2 gemm 0x0 n=512 b=0 sram tree fixed -> mm-hier l=2 k=8 m=8 b=512 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "l2 gemm 0x0 n=96 b=0 sram tree fixed -> mm-hier l=2 k=8 m=8 b=96 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "l2 gemm 0x0 n=60 b=0 sram tree fixed -> error: no SRAM panel edge tiles n=60 with m=8, l=2 (pad the matrices or use the compat layer)",
      "l2 gemm 32x0 n=192 b=0 sram tree fixed -> mm-hier l=2 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "l2 gemm_multi 0x0 n=64 b=0 sram tree fixed -> mm-multi l=2 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "l2 gemm_array 0x0 n=64 b=0 sram tree fixed -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "small-bram gemv_auto 64x900 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=80 blk=1 sch=0 tune=0,0,0,0,0,''",
      "small-bram gemv_auto 64x64 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=80 blk=0 sch=1 tune=0,0,0,0,0,''",
      "small-bram spmxv 64x900 n=0 b=0 dram tree fixed -> error: SpMXV: x does not fit the device's on-chip memory",
      "small-bram spmxv 64x64 n=0 b=0 dram tree fixed -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=80 blk=0 sch=0 tune=0,0,0,0,0,''",
      "small-bram gemv 64x900 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=58197 dw=57664 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "small-bram dot 0x900 n=0 b=0 dram tree fixed -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=1884 dw=1800 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "banks5 gemv 2048x2048 n=0 b=0 dram tree fixed -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=4235088 dw=4196352 pe=0 cap=0 blk=0 sch=1 tune=0,0,0,0,0,''",
      "banks5 gemv 2048x2048 n=0 b=0 dram col fixed -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=4235088 dw=4196352 pe=0 cap=0 blk=0 sch=0 tune=0,0,0,0,0,''",
      "l2 gemm 0x0 n=512 b=0 sram tree model -> mm-multi l=2 k=8 m=8 b=512 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=512 cap=0 blk=0 sch=0 tune=1,80,32,0,0,'mm-multi l=2 k=8 m=8 b=512'",
      "l2 gemm 0x0 n=96 b=0 sram tree model -> mm-multi l=2 k=8 m=8 b=96 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=96 cap=0 blk=0 sch=0 tune=1,80,36,0,0,'mm-multi l=2 k=8 m=8 b=96'",
      "l2 gemm 0x0 n=60 b=0 sram tree model -> mm-multi l=2 k=2 m=4 b=60 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=60 cap=0 blk=0 sch=0 tune=1,80,72,0,0,'mm-multi l=2 k=2 m=4 b=60'",
      "l2 gemm 32x0 n=192 b=0 sram tree model -> mm-hier l=2 k=8 m=8 b=192 [as=8 ms=11 clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=192 cap=0 blk=0 sch=0 tune=1,40,16,0,0,'mm-hier l=2 k=8 m=8 b=192'",
      "l2 gemm_multi 0x0 n=64 b=0 sram tree model -> mm-multi l=2 k=8 m=8 b=64 [clk=130 dram=3.0769230769230771 link=1.9230769230769231] stg=0 dw=0 pe=64 cap=0 blk=0 sch=0 tune=1,40,17,0,0,'mm-multi l=2 k=8 m=8 b=64'",
      "l2 gemm_array 0x0 n=64 b=0 sram tree model -> mm-array k=8 m=8 [as=8 ms=11 wpc=4 clk=130 cst=0] stg=0 dw=0 pe=0 cap=0 blk=0 sch=0 tune=1,20,8,0,0,'mm-array k=8 m=8'",
      "small-bram gemv_auto 64x900 n=0 b=0 dram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=80 blk=1 sch=0 tune=1,5,2,0,0,'gemv-tree k=4'",
      "small-bram gemv_auto 64x64 n=0 b=0 dram tree model -> gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] stg=0 dw=0 pe=0 cap=80 blk=0 sch=1 tune=1,5,2,0,0,'gemv-tree k=4'",
      "small-bram spmxv 64x900 n=0 b=0 dram tree model -> error: tuner: no feasible design for spmxv",
      "small-bram spmxv 64x64 n=0 b=0 dram tree model -> spmxv k=4 [as=14 ms=11 epc=2 clk=164] stg=0 dw=0 pe=0 cap=80 blk=0 sch=0 tune=1,4,1,0,0,'spmxv k=4'",
      "small-bram gemv 64x900 n=0 b=0 dram tree model -> gemv-col k=3 [as=14 ms=11 wpc=4 clk=164] stg=58197 dw=57664 pe=0 cap=0 blk=0 sch=0 tune=1,11,8,0,0,'gemv-col k=3'",
      "small-bram dot 0x900 n=0 b=0 dram tree model -> dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] stg=1884 dw=1800 pe=0 cap=0 blk=0 sch=1 tune=1,6,2,0,0,'dot k=2'",
      "banks5 gemv 2048x2048 n=0 b=0 dram tree model -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=4235088 dw=4196352 pe=0 cap=0 blk=0 sch=0 tune=1,11,4,0,0,'gemv-col k=4'",
      "banks5 gemv 2048x2048 n=0 b=0 dram col model -> gemv-col k=4 [as=14 ms=11 wpc=5 clk=164] stg=4235088 dw=4196352 pe=0 cap=0 blk=0 sch=0 tune=1,11,4,0,0,'gemv-col k=4'",
  };
  expect_rows(plan_rows(), expected);
}

TEST(PlanTable, ProbeCandidatesAndWinners) {
  PlanKey gemv;
  gemv.kind = OpKind::Gemv;
  gemv.rows = gemv.cols = 512;
  gemv.tune = TunePolicy::Probe;
  PlanKey gemm;
  gemm.kind = OpKind::Gemm;
  gemm.n = 64;
  gemm.tune = TunePolicy::Probe;
  std::vector<std::string> rows = probe_rows(gemv);
  for (std::string& r : probe_rows(gemm)) rows.push_back(std::move(r));
  const std::vector<std::string> expected = {
      "gemv considered=11 feasible=6 pruned=5 probed=3 probe_cycles=71478 winner=gemv-tree k=4",
      "  gemv-tree k=4 model=65645 probe=16644 probe_s=0.00010148780487804879 chosen",
      "  gemv-col k=3 model=87577 probe=22041 probe_s=0.00013439634146341462",
      "  gemv-col k=2 model=131097 probe=32793 probe_s=0.00019995731707317073",
      "gemm considered=40 feasible=24 pruned=16 probed=3 probe_cycles=99537 winner=mm-array k=8 m=8",
      "  mm-array k=8 m=8 model=32768 probe=32843 probe_s=0.00025263846153846155 chosen",
      "  mm-array k=8 m=16 model=32768 probe=33011 probe_s=0.00025393076923076923",
      "  mm-array k=8 m=32 model=32768 probe=33683 probe_s=0.00025910000000000001",
  };
  expect_rows(rows, expected);
}

TEST(PlanTable, GraphStagingBudgets) {
  std::vector<std::string> rows;
  for (const char* line :
       {"xdfuzz1 kind=graph place=dram gform=cg_step n=96 vseed=12",
        "xdfuzz1 kind=graph place=dram gform=jacobi_sweep n=48 batch=4 vseed=14",
        "xdfuzz1 kind=graph place=dram gform=cg_step n=74 scap=96 vseed=15",
        "xdfuzz1 kind=graph place=dram n=33 batch=4 vseed=16"}) {
    for (TunePolicy tune : {TunePolicy::Fixed, TunePolicy::Model}) {
      for (std::string& r : graph_rows(line, tune)) rows.push_back(std::move(r));
    }
  }
  const std::vector<std::string> expected = {
      "xdfuzz1 kind=graph place=dram gform=cg_step n=96 vseed=12 fixed saved=201 saved_w=192 fused_edges=1 shared=1 chains=1 order=0,1, chain_of=0,0, edge_fused=1",
      "  node 0 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=9398/9312 unfused=9398/9312 plan_stg=9398",
      "  node 1 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=0/0 unfused=201/192 plan_stg=201",
      "xdfuzz1 kind=graph place=dram gform=cg_step n=96 vseed=12 model saved=201 saved_w=192 fused_edges=1 shared=1 chains=1 order=0,1, chain_of=0,0, edge_fused=1",
      "  node 0 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=9398/9312 unfused=9398/9312 plan_stg=9398",
      "  node 1 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=0/0 unfused=201/192 plan_stg=201",
      "xdfuzz1 kind=graph place=dram gform=jacobi_sweep n=48 batch=4 vseed=14 fixed saved=6975 saved_w=6912 fused_edges=0 shared=3 chains=1 order=0,1,2,3, chain_of=0,0,0,0, edge_fused=",
      "  node 0 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=2374/2352 unfused=2374/2352 plan_stg=2374",
      "  node 1 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=49/48 unfused=2374/2352 plan_stg=2374",
      "  node 2 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=49/48 unfused=2374/2352 plan_stg=2374",
      "  node 3 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=49/48 unfused=2374/2352 plan_stg=2374",
      "xdfuzz1 kind=graph place=dram gform=jacobi_sweep n=48 batch=4 vseed=14 model saved=6975 saved_w=6912 fused_edges=0 shared=3 chains=1 order=0,1,2,3, chain_of=0,0,0,0, edge_fused=",
      "  node 0 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=2374/2352 unfused=2374/2352 plan_stg=2374",
      "  node 1 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=49/48 unfused=2374/2352 plan_stg=2374",
      "  node 2 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=49/48 unfused=2374/2352 plan_stg=2374",
      "  node 3 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=49/48 unfused=2374/2352 plan_stg=2374",
      "xdfuzz1 kind=graph place=dram gform=cg_step n=74 scap=96 vseed=15 fixed saved=77 saved_w=74 fused_edges=0 shared=1 chains=1 order=0,1, chain_of=0,0, edge_fused=0",
      "  node 0 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=5602/5550 unfused=5602/5550 plan_stg=5602",
      "  node 1 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=78/74 unfused=155/148 plan_stg=155",
      "xdfuzz1 kind=graph place=dram gform=cg_step n=74 scap=96 vseed=15 model saved=77 saved_w=74 fused_edges=0 shared=1 chains=1 order=0,1, chain_of=0,0, edge_fused=0",
      "  node 0 gemv-tree k=4 [as=14 ms=11 wpc=4 clk=164] fused=5602/5550 unfused=5602/5550 plan_stg=5602",
      "  node 1 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=78/74 unfused=155/148 plan_stg=155",
      "xdfuzz1 kind=graph place=dram n=33 batch=4 vseed=16 fixed saved=0 saved_w=0 fused_edges=0 shared=0 chains=4 order=0,1,2,3, chain_of=0,1,2,3, edge_fused=",
      "  node 0 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "  node 1 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "  node 2 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "  node 3 dot k=2 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "xdfuzz1 kind=graph place=dram n=33 batch=4 vseed=16 model saved=0 saved_w=0 fused_edges=0 shared=0 chains=4 order=0,1,2,3, chain_of=0,1,2,3, edge_fused=",
      "  node 0 dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "  node 1 dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "  node 2 dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
      "  node 3 dot k=1 [as=14 ms=11 wpc=4.0441176470588234 clk=170] fused=70/66 unfused=70/66 plan_stg=70",
  };
  expect_rows(rows, expected);
}

TEST(PlanBuilder, ZeroGemmKnobsAreConfigErrors) {
  // The configured GEMM designs divide by m and b and walk the panel edge
  // down towards m*l: each zero knob is refused, never divided by — on a
  // panel edge that tiles n (64) and on one that must be searched (60).
  for (OpKind kind : {OpKind::Gemm, OpKind::GemmMulti}) {
    for (std::size_t n : {std::size_t{64}, std::size_t{60}}) {
      for (int knob = 0; knob < 3; ++knob) {
        ContextConfig cfg;
        cfg.mm_b = 48;
        if (knob == 0) cfg.mm_m = 0;
        if (knob == 1) cfg.mm_b = 0;
        if (knob == 2) cfg.mm_l = 0;
        PlanKey key;
        key.kind = kind;
        key.n = n;
        EXPECT_THROW(host::build_plan(cfg, key), ConfigError)
            << host::op_kind_name(kind) << " n=" << n << " knob " << knob;
      }
    }
  }
  ContextConfig cfg;
  cfg.mm_m = 0;
  EXPECT_THROW(host::choose_panel_edge(cfg, 60), ConfigError);
  cfg = ContextConfig{};
  cfg.mm_l = 0;
  EXPECT_THROW(host::choose_panel_edge(cfg, 60), ConfigError);

  // The tuner reads none of these knobs as a divisor: a tuned plan builds.
  cfg = ContextConfig{};
  cfg.mm_b = 0;
  PlanKey key;
  key.kind = OpKind::Gemm;
  key.n = 64;
  key.tune = TunePolicy::Model;
  EXPECT_NO_THROW(host::build_plan(cfg, key));
}
