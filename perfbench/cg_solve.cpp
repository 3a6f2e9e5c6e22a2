// cg_solve: solver::cg_dense on a dense SPD A = M^T M + n I (n = 512),
// Placement::Dram, tolerance 1e-10, one caller thread. A is built once from
// the seed; each solve takes the next right-hand side from a pool of four.
// The fused GEMV->dot graph's tree-GEMV simulation is most of each solve,
// and no serve code, pool hand-off or machine model is involved, so this is
// the control for serve and shard changes and the workload where an
// engine's host ns per simulated cycle shows.
//
// The caller thread moves to the next CPU of its affinity mask before each
// solve (CpuRotation, bench.hpp), so a run samples every vCPU of a shared
// host equally. It is still one caller thread, and a migration costs far
// less than a solve. A solve starts no thread: the pool is up from set-up.
//
// Each solve must converge, ||b - A x|| (recomputed with host::ref_gemv)
// must meet the tolerance, and a repeated right-hand side must give
// bit-identical x with identical iterations and cycles.
//
// Traced solves are the same cg_dense calls, timed whole. Each is followed
// by a probe of its parts: one GEMV->dot graph and one two-dot graph as
// cg_dense composes them, then their nodes run one by one. Per solve the
// graph layer is these probe times scaled by the solve's exact graph calls
// (iterations GEMV->dot graphs, iterations + 1 two-dot graphs).
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/reference.hpp"
#include "serve/proto.hpp"
#include "solver/cg.hpp"

namespace perfbench {
namespace {

using namespace xd;

constexpr std::size_t kN = 512;
constexpr unsigned kRhs = 4;
constexpr double kTolerance = 1e-10;

/// What must repeat for a right-hand side.
struct SolveRecord {
  int iterations = 0;
  u64 fpga_cycles = 0;
  u64 staging_saved = 0;
  u64 x_fnv = 0;
  bool operator==(const SolveRecord&) const = default;
};

solver::SolveOptions options() {
  solver::SolveOptions o;
  o.placement = host::Placement::Dram;
  o.tolerance = kTolerance;
  return o;
}

class CgSolve : public Workload {
 public:
  explicit CgSolve(u64 seed) {
    Rng rng(seed);
    const auto m = rng.matrix(kN, kN);
    a_.assign(kN * kN, 0.0);
    for (std::size_t k = 0; k < kN; ++k) {
      for (std::size_t i = 0; i < kN; ++i) {
        const double mki = m[k * kN + i];
        for (std::size_t j = 0; j < kN; ++j) a_[i * kN + j] += mki * m[k * kN + j];
      }
    }
    for (std::size_t i = 0; i < kN; ++i) a_[i * kN + i] += static_cast<double>(kN);
    for (unsigned k = 0; k < kRhs; ++k) rhs_.push_back(rng.vector(kN));
  }

  void teardown() override { ctx_.reset(); }

  void setup(Tracer* tr) override {
    select_backend();
    ctx_ = std::make_unique<host::Context>(host::ContextConfig{});
    const auto& b = rhs_[0];
    {
      Scope s(tr, "host.plan.pin_plan", 0, -1, "gemv_tree");
      ctx_->runtime().pin_plan(
          host::OpDesc::gemv(a_, kN, kN, b, host::Placement::Dram));
    }
    Scope s(tr, "host.plan.pin_plan", 1, -1, "dot");
    ctx_->runtime().pin_plan(host::OpDesc::dot(b, b, host::Placement::Dram));
  }

  void run(const Budget& budget, Tracer* tr, Tally& t) override {
    const u64 deadline = budget.deadline();
    const solver::SolveOptions opts = options();
    CpuRotation cpus;
    while (!budget.done(t.attempted, deadline)) {
      cpus.next();
      const unsigned k = static_cast<unsigned>(next_++ % kRhs);
      const u64 unit = next_;
      const u64 t0 = now_ns();
      solver::SolveResult res;
      {
        Scope s(tr, "solver.cg_dense", unit);
        res = solver::cg_dense(*ctx_, a_, kN, rhs_[k], opts);
        s.cycles(res.fpga_cycles);
      }
      const u64 t1 = now_ns();
      ++t.attempted;
      if (check(k, res, t)) {
        t.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
      if (tr) {
        traced_gemv_dot_ += static_cast<u64>(res.iterations);
        traced_dot2_ += static_cast<u64>(res.iterations) + 1;
        probe(k, tr, unit);
        t.probe_s += static_cast<double>(now_ns() - t1) / 1e9;
      }
    }
  }

  u64 pool_size() const override { return kRhs; }

  Metrics fingerprint() const override {
    return records_.size() < kRhs ? Metrics{} : record_means();
  }

  void layers(const std::vector<Span>& spans, const Tally&, Metrics& out,
              std::vector<LayerPart>& parts) override {
    const SpanStats solves = span_stats(spans, "solver.cg_dense");
    if (solves.count == 0) return;
    const SpanStats gd = span_stats(spans, "host.graph.run_graph", "gemv_dot");
    const SpanStats d2 = span_stats(spans, "host.graph.run_graph", "dot2");
    const SpanStats gemv = span_stats(spans, "host.runtime.run", "gemv_tree");
    const SpanStats dot = span_stats(spans, "host.runtime.run", "dot");
    if (gd.count == 0 || d2.count == 0) return;
    // Graph calls per solve, exact, times the probed cost of each kind.
    const double n = static_cast<double>(solves.count);
    const double n_gd = static_cast<double>(traced_gemv_dot_) / n;
    const double n_d2 = static_cast<double>(traced_dot2_) / n;
    const double graph_us = n_gd * gd.mean_us() + n_d2 * d2.mean_us();
    const double nodes_us = n_gd * (gemv.mean_us() + dot.mean_us()) +
                            n_d2 * 2 * dot.mean_us();
    // Residual: the solve's host-side vector updates (and probe error).
    const double host_us = solves.mean_us() - graph_us;

    out["solver.host_ms"] = host_us / 1e3;
    out["host.graph.run_graph_us"] = graph_us / (n_gd + n_d2);
    out["host.graph.overhead_us"] = (graph_us - nodes_us) / (n_gd + n_d2);
    out["host.runtime.run_us"] =
        (gemv.total_us + dot.total_us) / static_cast<double>(gemv.count + dot.count);
    const SpanStats pins = span_stats(spans, "host.plan.pin_plan");
    if (pins.count) out["host.plan.build_us"] = pins.mean_us();
    const host::PlanCache& pc = ctx_->runtime().plan_cache();
    const u64 hits = pc.hits() + pc.graph_hits();
    const u64 lookups = hits + pc.misses() + pc.graph_misses();
    if (lookups) out["host.plan.hit_rate"] = static_cast<double>(hits) / lookups;
    const Metrics means = record_means();
    for (const char* k : {"solver.iterations", "host.graph.staging_saved_cycles"}) {
      out[k] = means.at(k);
    }
    engine_metrics(spans, out);

    parts = {{"host.runtime.run", nodes_us, false},
             {"host.graph.overhead", graph_us - nodes_us, false},
             {"solver.host", host_us, true}};
  }

 private:
  /// Exact counts averaged over the right-hand sides solved so far.
  Metrics record_means() const {
    double cycles = 0, iterations = 0, saved = 0;
    for (const auto& [k, r] : records_) {
      cycles += static_cast<double>(r.fpga_cycles);
      iterations += r.iterations;
      saved += static_cast<double>(r.staging_saved);
    }
    const double n = static_cast<double>(std::max<std::size_t>(records_.size(), 1));
    return {{"sim_cycles_per_op", cycles / n},
            {"solver.iterations", iterations / n},
            {"host.graph.staging_saved_cycles", saved / n}};
  }

  bool check(unsigned k, const solver::SolveResult& res, Tally& t) {
    if (!res.converged) {
      t.fail("cg did not converge");
      return false;
    }
    const auto ax = host::ref_gemv(a_, kN, kN, res.x);
    double sq = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      const double d = rhs_[k][i] - ax[i];
      sq += d * d;
    }
    if (!(std::sqrt(sq) <= kTolerance)) {
      t.fail("||b - Ax|| = " + std::to_string(std::sqrt(sq)) + " > tolerance");
      return false;
    }
    const SolveRecord rec{res.iterations, res.fpga_cycles,
                          res.staging_saved_cycles, serve::values_fnv(res.x)};
    const auto [it, fresh] = records_.emplace(k, rec);
    if (!fresh && !(it->second == rec)) {
      t.fail("right-hand side " + std::to_string(k) +
             " solved differently on a repeat");
      return false;
    }
    return true;
  }

  /// A solve's parts, timed one by one after it: its two graph kinds as
  /// cg_dense builds them (GEMV->dot, with the GEMV result edge-fed into the
  /// dot; and two dots sharing r, with z a distinct vector), then the nodes
  /// on their own on the calling thread, with the same shapes and placement.
  void probe(unsigned k, Tracer* tr, u64 unit) {
    Scope root(tr, "cg.probe", unit);
    const auto& b = rhs_[k];
    const host::Placement pl = host::Placement::Dram;
    host::Runtime& rt = ctx_->runtime();
    {
      host::GraphDesc g;
      g.nodes.push_back({"ap", host::OpDesc::gemv(a_, kN, kN, b, pl), true});
      host::OpDesc pap;
      pap.kind = host::OpKind::Dot;
      pap.placement = pl;
      pap.cols = kN;
      pap.a = &b;
      g.nodes.push_back({"pap", pap, true});
      g.edges.push_back({0, 1, host::OperandSlot::B});
      Scope s(tr, "host.graph.run_graph", unit, root.id(), "gemv_dot");
      s.cycles(rt.run_graph(g).report.cycles);
    }
    {
      const std::vector<double> z = b;
      host::GraphDesc g;
      g.nodes.push_back({"d0", host::OpDesc::dot(b, z, pl), true});
      g.nodes.push_back({"d1", host::OpDesc::dot(b, b, pl), true});
      Scope s(tr, "host.graph.run_graph", unit, root.id(), "dot2");
      s.cycles(rt.run_graph(g).report.cycles);
    }
    host::Outcome y;
    {
      Scope s(tr, "host.runtime.run", unit, root.id(), "gemv_tree");
      y = rt.run(host::OpDesc::gemv(a_, kN, kN, b, host::Placement::Dram));
      s.cycles(engine_cycles(y));
    }
    const std::vector<double>* dots[] = {&y.values, &b};
    for (const std::vector<double>* v : dots) {
      Scope s(tr, "host.runtime.run", unit, root.id(), "dot");
      s.cycles(engine_cycles(
          rt.run(host::OpDesc::dot(b, *v, host::Placement::Dram))));
    }
  }

  std::vector<double> a_;
  std::vector<std::vector<double>> rhs_;
  std::unique_ptr<host::Context> ctx_;
  u64 next_ = 0;
  std::map<unsigned, SolveRecord> records_;
  // Graph calls of the traced solves, from their iteration counts.
  u64 traced_gemv_dot_ = 0;
  u64 traced_dot2_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cg_solve(u64 seed) {
  return std::make_unique<CgSolve>(seed);
}

}  // namespace perfbench
