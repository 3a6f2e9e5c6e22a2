// sharded: host::ShardScheduler::run on a 3-chassis x 2-node topology,
// cycling GEMM n=96 and tree GEMV 192x192 over l in {1, 2, 3, 6} plus the
// scheduler's own choice (forced_l = 0). Every op builds a machine::System,
// whose page zeroing dominates its wall time, and drives the pool with a
// few heavy tasks where serve_small sends many tiny ones.
//
// Checks: GEMM is bit-identical to the single-device run and its model
// cycles equal the simulated cycles; GEMV is bit-identical at l = 1 and
// within the testing oracle's tolerance at l > 1; l = 1 costs exactly the
// single-device cycles; a repeated variant repeats its values, cycles and
// link words exactly.
//
// The traced run follows each op with a probe of its parts: the plan call,
// a System built and freed with the same configuration, and the shard
// sub-ops submitted to the pool; what remains of the op is scatter, gather
// and concatenation.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/random.hpp"
#include "host/shard.hpp"
#include "serve/proto.hpp"
#include "testing/oracle.hpp"

namespace perfbench {
namespace {

using namespace xd;

constexpr std::size_t kGemmN = 96;
constexpr std::size_t kGemvN = 192;

struct Variant {
  bool gemm = true;
  unsigned l = 0;  ///< 0: the scheduler chooses
  const char* name = "";
};

// A one-op traced probe runs the first variant, so it is one whose shards
// cross chassis links.
constexpr Variant kVariants[] = {
    {true, 6, "gemm96-l6"},    {false, 6, "gemv192-l6"},
    {true, 3, "gemm96-l3"},    {false, 3, "gemv192-l3"},
    {true, 2, "gemm96-l2"},    {false, 2, "gemv192-l2"},
    {true, 1, "gemm96-l1"},    {false, 1, "gemv192-l1"},
    {true, 0, "gemm96-auto"},  {false, 0, "gemv192-auto"},
};
constexpr std::size_t kVariantCount = sizeof kVariants / sizeof kVariants[0];

machine::SystemConfig topology() {
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  return sys;
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// What must repeat for a variant.
struct OpRecord {
  u64 cycles = 0;
  double link_words = 0.0;
  double interchassis_words = 0.0;
  u64 values_fnv = 0;
  bool operator==(const OpRecord&) const = default;
};

class Sharded : public Workload {
 public:
  explicit Sharded(u64 seed) {
    Rng rng(seed);
    ga_ = rng.matrix(kGemmN, kGemmN);
    gb_ = rng.matrix(kGemmN, kGemmN);
    va_ = rng.matrix(kGemvN, kGemvN);
    vx_ = rng.vector(kGemvN);
    host::Runtime rt(host::ContextConfig{});
    gemm_base_ = rt.run(desc(Variant{true, 1, ""}));
    gemv_base_ = rt.run(desc(Variant{false, 1, ""}));
    oracle_ = testing::oracle_gemv(va_, kGemvN, kGemvN, vx_);
  }
  ~Sharded() override { teardown(); }

  void teardown() override {
    sched_.reset();
    rt_.reset();
  }

  void setup(Tracer* tr) override {
    select_backend();
    rt_ = std::make_unique<host::Runtime>(host::ContextConfig{});
    sched_ = std::make_unique<host::ShardScheduler>(*rt_, topology());
    for (const bool gemm : {true, false}) {
      const host::OpDesc d = desc(Variant{gemm, 1, ""});
      Scope s(tr, "host.plan.pin_plan", gemm ? 0 : 1, -1, engine_family(d));
      rt_->pin_plan(d);
    }
    for (const Variant& v : kVariants) sched_->plan(desc(v), v.l);
  }

  void run(const Budget& budget, Tracer* tr, Tally& t) override {
    const u64 deadline = budget.deadline();
    while (!budget.done(t.attempted, deadline)) {
      const std::size_t vi = next_++ % kVariantCount;
      const Variant& v = kVariants[vi];
      const host::OpDesc d = desc(v);
      const u64 t0 = now_ns();
      host::ShardOutcome so;
      {
        Scope s(tr, "host.shard.run", next_, -1, v.name);
        so = sched_->run(d, v.l);
        s.cycles(so.report.cycles);
      }
      const u64 t1 = now_ns();
      ++t.attempted;
      if (check(vi, so, t)) {
        t.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
      if (tr) {
        probe(v, d, tr, next_);
        t.probe_s += static_cast<double>(now_ns() - t1) / 1e9;
      }
    }
  }

  u64 pool_size() const override { return kVariantCount; }

  Metrics fingerprint() const override {
    return records_.size() < kVariantCount ? Metrics{} : record_means();
  }

  void layers(const std::vector<Span>& spans, const Tally&, Metrics& out,
              std::vector<LayerPart>& parts) override {
    const SpanStats run = span_stats(spans, "host.shard.run");
    if (run.count == 0) return;
    const SpanStats plan = span_stats(spans, "host.shard.plan");
    const SpanStats build = span_stats(spans, "machine.system_build");
    const SpanStats freed = span_stats(spans, "machine.system_free");
    const SpanStats exec = span_stats(spans, "host.shard.exec");
    const SpanStats one = span_stats(spans, "host.runtime.run");
    const SpanStats submit = span_stats(spans, "host.runtime.submit");
    const double machine = build.mean_us() + freed.mean_us();
    const double comm =
        run.mean_us() - plan.mean_us() - machine - exec.mean_us();

    out["host.shard.plan_us"] = plan.mean_us();
    out["host.shard.exec_ms"] = exec.mean_us() / 1e3;
    out["host.shard.comm_ms"] = comm / 1e3;
    out["machine.system_build_ms"] = build.mean_us() / 1e3;
    out["host.runtime.run_us"] = one.mean_us();
    out["host.runtime.dispatch_us"] = submit.mean_us() - one.mean_us();
    const SpanStats pins = span_stats(spans, "host.plan.pin_plan");
    if (pins.count) out["host.plan.build_us"] = pins.mean_us();
    const host::PlanCache& pc = rt_->plan_cache();
    const u64 lookups = pc.hits() + pc.misses();
    if (lookups) out["host.plan.hit_rate"] = static_cast<double>(pc.hits()) / lookups;
    const Metrics means = record_means();
    for (const char* k : {"host.shard.link_words", "host.shard.interchassis_words"}) {
      out[k] = means.at(k);
    }
    engine_metrics(spans, out);

    parts = {{"host.shard.plan", plan.mean_us(), false},
             {"machine.system", machine, false},
             {"host.shard.exec", exec.mean_us(), false},
             {"host.shard.comm", comm, true}};
  }

 private:
  /// Exact counts averaged over the variants run so far.
  Metrics record_means() const {
    double cycles = 0, link = 0, inter = 0;
    for (const auto& [vi, r] : records_) {
      cycles += static_cast<double>(r.cycles);
      link += r.link_words;
      inter += r.interchassis_words;
    }
    const double n = static_cast<double>(std::max<std::size_t>(records_.size(), 1));
    return {{"sim_cycles_per_op", cycles / n},
            {"host.shard.link_words", link / n},
            {"host.shard.interchassis_words", inter / n}};
  }

  host::OpDesc desc(const Variant& v) const {
    return v.gemm ? host::OpDesc::gemm(ga_, gb_, kGemmN)
                  : host::OpDesc::gemv(va_, kGemvN, kGemvN, vx_);
  }

  bool check(std::size_t vi, const host::ShardOutcome& so, Tally& t) {
    const Variant& v = kVariants[vi];
    const host::Outcome& base = v.gemm ? gemm_base_ : gemv_base_;
    std::string why;
    if (so.plan.l == 1 && so.report.cycles != base.report.cycles) {
      why = "l=1 cycles differ from the single device";
    } else if (v.gemm || so.plan.l == 1) {
      if (!bits_equal(so.values, base.values)) why = "values not bit-identical";
      if (v.gemm && so.report.cycles != so.plan.model_cycles) {
        why = "model cycles differ from simulated cycles";
      }
    } else if (so.values.size() != oracle_.values.size()) {
      why = "wrong result length";
    } else {
      for (std::size_t i = 0; i < so.values.size() && why.empty(); ++i) {
        if (!(std::fabs(so.values[i] - oracle_.values[i]) <=
              testing::oracle_tolerance(oracle_.mag[i]))) {
          why = "row " + std::to_string(i) + " outside the oracle tolerance";
        }
      }
    }
    const OpRecord rec{so.report.cycles, so.link_words, so.interchassis_words,
                       serve::values_fnv(so.values)};
    const auto [it, fresh] = records_.emplace(vi, rec);
    if (why.empty() && !fresh && !(it->second == rec)) {
      why = "a repeat gave different values, cycles or link words";
    }
    if (!why.empty()) {
      t.fail(std::string(v.name) + ": " + why);
      return false;
    }
    return true;
  }

  /// The op's parts, timed one by one after it: plan, the System it builds
  /// and frees, and its shard sub-ops on the pool; then shard 0 run on the
  /// calling thread and through submit, for the runtime's dispatch cost.
  void probe(const Variant& v, const host::OpDesc& d, Tracer* tr, u64 unit) {
    Scope root(tr, "shard.probe", unit, -1, v.name);
    host::ShardPlan sp;
    {
      Scope s(tr, "host.shard.plan", unit, root.id(), v.name);
      sp = sched_->plan(d, v.l);
    }
    machine::SystemConfig mcfg = topology();
    mcfg.chassis.node.clock_mhz = sp.clock_mhz;
    std::unique_ptr<machine::System> sys;
    {
      Scope s(tr, "machine.system_build", unit, root.id());
      sys = std::make_unique<machine::System>(mcfg);
    }
    {
      Scope s(tr, "machine.system_free", unit, root.id());
      sys.reset();
    }
    const std::size_t inner = v.gemm ? kGemmN : kGemvN;
    std::vector<std::vector<double>> panels(sp.l);
    std::vector<host::OpDesc> subs(sp.l);
    for (unsigned i = 0; i < sp.l; ++i) {
      const host::ShardPiece& p = sp.pieces[i];
      const double* base = d.a->data() + p.row0 * inner;
      panels[i].assign(base, base + p.rows * inner);
      subs[i] = v.gemm ? host::OpDesc::gemm_panel(panels[i], p.rows, gb_, kGemmN)
                       : host::OpDesc::gemv(panels[i], p.rows, kGemvN, vx_);
    }
    {
      Scope s(tr, "host.shard.exec", unit, root.id(), v.name);
      std::vector<std::future<host::Outcome>> futures;
      for (const host::OpDesc& sub : subs) futures.push_back(rt_->submit(sub));
      for (auto& f : futures) f.get();
    }
    const char* fam = engine_family(subs[0]);
    {
      Scope s(tr, "host.runtime.run", unit, root.id(), fam);
      s.cycles(engine_cycles(rt_->run(subs[0])));
    }
    Scope s(tr, "host.runtime.submit", unit, root.id(), fam);
    rt_->submit(subs[0]).get();
  }

  std::vector<double> ga_, gb_, va_, vx_;
  host::Outcome gemm_base_, gemv_base_;
  testing::OracleVec oracle_;
  std::unique_ptr<host::Runtime> rt_;
  std::unique_ptr<host::ShardScheduler> sched_;
  u64 next_ = 0;
  std::map<std::size_t, OpRecord> records_;
};

}  // namespace

std::unique_ptr<Workload> make_sharded(u64 seed) {
  return std::make_unique<Sharded>(seed);
}

}  // namespace perfbench
