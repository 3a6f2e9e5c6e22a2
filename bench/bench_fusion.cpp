// Fused vs unfused op-graph execution: runs the CG-step chain (A*p feeding
// the p·Ap dot) and the Jacobi batch sweep (S systems sharing one matrix)
// both as fused graph plans (Runtime::run_graph) and as the equivalent
// per-op sequence, verifies the fused run reproduces the per-op values bit
// for bit, and reports the DRAM staging cycles each plan pays plus the
// wall clock.
//
// Staging cycles are deterministic simulator output — the fused plan MUST
// pay strictly fewer on the DRAM-placed workloads, and the binary exits
// nonzero if it doesn't (the fusion_saves_staging test leans on this). Wall
// clock is informational: fusion saves simulated staging, not host time.
//
// Each workload writes two bench records (bench_util.hpp), "name/fused" and
// "name/unfused"; the bench_all target collects them into BENCH.json.
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/graph.hpp"

using namespace xd;

namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void feed(host::OpDesc& d, host::OperandSlot slot,
          const std::vector<double>* v) {
  switch (slot) {
    case host::OperandSlot::A: d.a = v; break;
    case host::OperandSlot::B: d.b = v; break;
    case host::OperandSlot::X: d.x = v; break;
  }
}

/// The per-op equivalent of a graph run: execute the nodes in index order
/// (the builders below list producers before consumers) with each edge-fed
/// slot pointed at the producer's just-computed result.
std::vector<host::Outcome> run_unfused(host::Runtime& rt,
                                       const host::GraphDesc& g) {
  std::vector<host::Outcome> outs;
  outs.reserve(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    host::OpDesc d = g.nodes[i].desc;
    for (const auto& e : g.edges) {
      if (e.to == i) feed(d, e.slot, &outs[e.from].values);
    }
    outs.push_back(rt.run(d));
  }
  return outs;
}

struct Workload {
  std::string name;
  bool expect_saving = false;  ///< DRAM-placed: fusion must save staging
  host::GraphDesc graph;
  std::deque<std::vector<double>> pool;  ///< stable operand storage
};

/// One CG iteration's FPGA chain: q = A*p from DRAM, then p·q with p
/// SRAM-resident and q forwarded on-chip instead of round-tripping.
Workload cg_step(Rng& rng, std::size_t n) {
  Workload w;
  w.name = cat("cg-step-", n, "-dram");
  w.expect_saving = true;
  const auto& a = w.pool.emplace_back(rng.matrix(n, n));
  const auto& p = w.pool.emplace_back(rng.vector(n));

  host::GraphNode ap;
  ap.name = "ap";
  ap.desc.kind = host::OpKind::Gemv;
  ap.desc.placement = host::Placement::Dram;
  ap.desc.rows = ap.desc.cols = n;
  ap.desc.a = &a;
  ap.desc.x = &p;
  w.graph.nodes.push_back(ap);

  host::GraphNode pap;
  pap.name = "pap";
  pap.desc.kind = host::OpKind::Dot;
  pap.desc.placement = host::Placement::Dram;
  pap.desc.cols = n;
  pap.desc.a = &p;  // shared with the gemv's x: staged once for the chain
  w.graph.nodes.push_back(pap);
  w.graph.edges.push_back({0, 1, host::OperandSlot::B});
  return w;
}

/// One Jacobi sweep over `systems` right-hand sides: every system multiplies
/// by the same DRAM-placed iteration matrix, which the graph plan stages
/// once instead of once per system.
Workload jacobi_sweep(Rng& rng, std::size_t n, std::size_t systems) {
  Workload w;
  w.name = cat("jacobi-sweep-", n, "x", systems, "-dram");
  w.expect_saving = true;
  const auto& a = w.pool.emplace_back(rng.matrix(n, n));
  for (std::size_t s = 0; s < systems; ++s) {
    host::GraphNode nd;
    nd.name = cat("sys", s);
    nd.desc.kind = host::OpKind::Gemv;
    nd.desc.placement = host::Placement::Dram;
    nd.desc.rows = nd.desc.cols = n;
    nd.desc.a = &a;
    nd.desc.x = &w.pool.emplace_back(rng.vector(n));
    w.graph.nodes.push_back(nd);
  }
  return w;
}

/// SRAM control: nothing is staged either way, so fusion must change
/// nothing — a zero row that keeps the bench honest about where the win
/// comes from.
Workload cg_step_sram(Rng& rng, std::size_t n) {
  Workload w = cg_step(rng, n);
  w.name = cat("cg-step-", n, "-sram");
  w.expect_saving = false;
  for (auto& nd : w.graph.nodes) nd.desc.placement = host::Placement::Sram;
  return w;
}

}  // namespace

int main() {
  bench::heading("Graph fusion: fused chains vs per-op execution");

  Rng rng(2005);
  // deque, not vector: growth must never relocate a Workload, or the node
  // descs' pointers into its operand pool would dangle.
  std::deque<Workload> workloads;
  workloads.push_back(cg_step(rng, 512));
  workloads.push_back(jacobi_sweep(rng, 256, 8));
  workloads.push_back(cg_step_sram(rng, 512));

  TextTable t({"Workload", "Nodes", "fused stage", "unfused stage", "saved",
               "fused ms", "unfused ms", "Bit-identical"});
  int rc = 0;
  constexpr int kReps = 21;
  for (auto& w : workloads) {
    host::Context fused_ctx;
    host::Context lone_ctx;

    // Untimed first runs build the plans and record their schedules.
    host::GraphOutcome fused = fused_ctx.runtime().run_graph(w.graph);
    std::vector<host::Outcome> lone = run_unfused(lone_ctx.runtime(), w.graph);
    auto [fused_ns, unfused_ns] = bench::time_reps(
        kReps, [&] { fused = fused_ctx.runtime().run_graph(w.graph); },
        [&] { lone = run_unfused(lone_ctx.runtime(), w.graph); });

    bool equal = fused.nodes.size() == lone.size();
    for (std::size_t i = 0; equal && i < lone.size(); ++i) {
      equal = bits_equal(fused.nodes[i].values, lone[i].values) &&
              fused.nodes[i].report.cycles - fused.nodes[i].report.staging_cycles ==
                  lone[i].report.cycles - lone[i].report.staging_cycles;
    }

    // Aggregate staging in node 0's clock domain: what the fused plan paid
    // vs what the same DAG costs as isolated per-op plans.
    const u64 stage_fused = fused.report.staging_cycles;
    const u64 stage_unfused = stage_fused + fused.staging_saved_cycles;

    t.row(w.name, static_cast<u64>(w.graph.nodes.size()), stage_fused,
          stage_unfused, fused.staging_saved_cycles,
          TextTable::num(fused_ns.median() / 1e6, 2),
          TextTable::num(unfused_ns.median() / 1e6, 2), equal ? "yes" : "NO");

    const std::vector<std::pair<std::string, double>> counters{
        {"nodes", w.graph.nodes.size()},
        {"staging_fused", stage_fused},
        {"staging_unfused", stage_unfused},
        {"staging_saved_cycles", fused.staging_saved_cycles},
        {"fused_edges", fused.fused_edges},
        {"shared_operands", fused.shared_operands}};
    bench::record({cat(w.name, "/fused"), fused.report.cycles, equal,
                   fused_ns, counters,
                   {{"speedup", unfused_ns.median() / fused_ns.median()}}});
    bench::record({cat(w.name, "/unfused"), fused.report.cycles, equal,
                   unfused_ns, counters, {}});

    if (!equal) {
      std::fprintf(stderr, "FATAL: %s fused run diverged from per-op run\n",
                   w.name.c_str());
      rc = 1;
    }
    if (w.expect_saving && fused.staging_saved_cycles == 0) {
      std::fprintf(stderr,
                   "FATAL: %s fused plan saved no staging cycles over the "
                   "per-op plans\n",
                   w.name.c_str());
      rc = 1;
    }
    if (!w.expect_saving && fused.staging_saved_cycles != 0) {
      std::fprintf(stderr,
                   "FATAL: %s is SRAM-resident but reported a staging "
                   "saving\n",
                   w.name.c_str());
      rc = 1;
    }
  }
  bench::print_table(t);
  bench::note(
      "Staging cycles are deterministic simulator output (aggregate clock "
      "domain); the DRAM rows must show a fused saving and every row must "
      "be bit-identical to per-op execution, or this binary exits nonzero.");
  return rc;
}
