#include "host/plan.hpp"

#include <array>
#include <cmath>

#include "host/tuner.hpp"
#include "telemetry/session.hpp"

namespace xd::host {

namespace {

/// The two alpha^2 reduction buffers the reduction-circuit designs (dot,
/// tree GEMV, SpMXV) hold besides their staging FIFOs and x store.
u64 alpha_buffer_words(const ContextConfig& cfg) {
  return 2ull * cfg.adder_stages * cfg.adder_stages;
}

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

/// The GEMM designs divide by m and b and step the panel edge down by m
/// towards m*l: a zero knob is a configuration error, not a SIGFPE.
void require_gemm_knobs(const ContextConfig& cfg) {
  require(cfg.mm_m > 0 && cfg.mm_b > 0 && cfg.mm_l > 0,
          cat("GEMM needs m, b and l >= 1 (m=", cfg.mm_m, ", b=", cfg.mm_b,
              ", l=", cfg.mm_l, ")"));
}

}  // namespace

std::size_t PlanKeyHash::operator()(const PlanKey& k) const {
  std::size_t seed = static_cast<std::size_t>(k.kind);
  hash_combine(seed, k.rows);
  hash_combine(seed, k.cols);
  hash_combine(seed, k.n);
  hash_combine(seed, k.batch);
  hash_combine(seed, static_cast<std::size_t>(k.placement));
  hash_combine(seed, static_cast<std::size_t>(k.arch));
  hash_combine(seed, static_cast<std::size_t>(k.backend));
  hash_combine(seed, static_cast<std::size_t>(k.tune));
  return seed;
}

std::size_t choose_panel_edge(const ContextConfig& cfg, std::size_t n) {
  require_gemm_knobs(cfg);
  // Largest SRAM panel edge <= the configured one that tiles both the m x m
  // on-chip blocks and the problem (and gives each FPGA a block column).
  const std::size_t min_b = static_cast<std::size_t>(cfg.mm_m) * cfg.mm_l;
  for (std::size_t b = std::min(cfg.mm_b, n); b >= min_b; b -= cfg.mm_m) {
    if (b % cfg.mm_m == 0 && n % b == 0) return b;
  }
  throw ConfigError(cat("no SRAM panel edge tiles n=", n, " with m=", cfg.mm_m,
                        ", l=", cfg.mm_l,
                        " (pad the matrices or use the compat layer)"));
}

u64 reduction_buffer_words(const ContextConfig& cfg) {
  return alpha_buffer_words(cfg) + kStagingFifoWords;
}

mem::BramBudget gemv_bram_plan(const ContextConfig& cfg, std::size_t cols) {
  mem::BramBudget plan(cfg.device);
  plan.allocate("reduction buffers (2 alpha^2)", alpha_buffer_words(cfg));
  plan.allocate("staging FIFOs", kStagingFifoWords);
  plan.allocate("x storage", cols);
  return plan;
}

mem::BramBudget gemm_bram_plan(const ContextConfig& cfg) {
  mem::BramBudget plan(cfg.device);
  plan.allocate("C' block store (m^2)", static_cast<u64>(cfg.mm_m) * cfg.mm_m);
  plan.allocate("C block store (m^2)", static_cast<u64>(cfg.mm_m) * cfg.mm_m);
  plan.allocate("B registers (2m)", 2ull * cfg.mm_m);
  return plan;
}

std::size_t gemv_onchip_x_capacity(const ContextConfig& cfg) {
  const u64 cap = cfg.device.bram_words();
  const u64 fixed = reduction_buffer_words(cfg);
  return cap > fixed ? static_cast<std::size_t>(cap - fixed) : 0;
}

namespace {

/// Per-slot DRAM staging of one key: a Dram dot stages both operand vectors
/// (2*cols at the dot clock), a Dram gemv streams A and writes y back
/// (rows*cols + rows at the gemv clock) with x assumed SRAM-resident, and
/// every other kind stages nothing today. The staging link is the
/// RapidArray DMA path the GEMV design measures, whatever design the plan
/// chose. A single-op plan pays the total; a graph node pays what fusion
/// leaves of it.
struct StagedWords {
  double in[3] = {0.0, 0.0, 0.0};  ///< indexed by OperandSlot
  double out = 0.0;                ///< result writeback
  double wpc = 0.0;                ///< staging link words/cycle (node clock)
  double total() const { return in[0] + in[1] + in[2] + out; }
  /// Cycles to stage `words` (the FPGA design is idle during staging, per
  /// the Table 4 methodology).
  u64 cycles(double words) const {
    return words > 0.0 ? static_cast<u64>(std::ceil(words / wpc)) : 0;
  }
};

StagedWords staged_words(const ContextConfig& cfg, const PlanKey& key) {
  StagedWords w;
  if (key.placement != Placement::Dram) return w;
  switch (key.kind) {
    case OpKind::Dot:
      w.in[0] = static_cast<double>(key.cols);
      w.in[1] = static_cast<double>(key.cols);
      w.wpc = words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.dot_clock_mhz);
      break;
    case OpKind::Gemv:
      // Table 4: 6.4 of the 8.0 ms GEMV latency is this data movement.
      w.in[0] = static_cast<double>(key.rows) * static_cast<double>(key.cols);
      w.out = static_cast<double>(key.rows);
      w.wpc = words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.gemv_clock_mhz);
      break;
    default:
      break;  // no DRAM staging modeled for the other kinds
  }
  return w;
}

/// The configured design for a key (Tables 3/4, Sec 6.4): the family its
/// kind and arch name, with k, m, l and b from ContextConfig.
TuneCandidate configured_design(const ContextConfig& cfg, const PlanKey& key) {
  TuneCandidate d;
  switch (key.kind) {
    case OpKind::Dot:
    case OpKind::DotBatch:
      d.family = TuneFamily::Dot;
      d.k = cfg.dot_k;
      break;
    case OpKind::Gemv:
    case OpKind::GemvAuto:  // the blocked-x fallback needs the tree design
      d.family = key.kind == OpKind::Gemv && key.arch == GemvArch::Column
                     ? TuneFamily::GemvCol
                     : TuneFamily::GemvTree;
      d.k = cfg.gemv_k;
      break;
    case OpKind::Spmxv:
      d.family = TuneFamily::Spmxv;
      d.k = cfg.gemv_k;
      break;
    case OpKind::GemmArray:
      d.family = TuneFamily::MmArray;
      d.k = cfg.mm_k;
      d.m = cfg.mm_m;
      break;
    case OpKind::Gemm:
    case OpKind::GemmMulti:
      require_gemm_knobs(cfg);
      d.family = key.kind == OpKind::Gemm ? TuneFamily::MmHier
                                          : TuneFamily::MmMulti;
      d.k = cfg.mm_k;
      d.m = cfg.mm_m;
      d.l = cfg.mm_l;
      // The multi-FPGA engine takes the configured panel edge as is; the
      // hierarchical one falls back to the largest edge that tiles n.
      d.b = key.kind == OpKind::GemmMulti || key.n % cfg.mm_b == 0
                ? cfg.mm_b
                : choose_panel_edge(cfg, key.n);
      break;
  }
  return d;
}

/// The design a key resolves to: the configured one under Fixed, the
/// tuner's winner under Model and Probe (noting what the tuner did).
TuneCandidate resolve_design(const ContextConfig& cfg, const PlanKey& key,
                             TuneSummary& tune) {
  if (key.tune == TunePolicy::Fixed) return configured_design(cfg, key);
  const TuneResult tr = tune_op(cfg, key);
  const TuneCandidate* win = tr.winner();
  if (!win) {
    std::string reasons;
    for (const TuneCandidate& c : tr.ranked) {
      reasons += cat("\n  ", c.name(), ": ", c.why_not);
    }
    throw ConfigError(cat("tuner: no feasible design for ",
                          op_kind_name(key.kind), reasons));
  }
  tune.tuned = true;
  tune.candidates = tr.considered;
  tune.pruned = tr.pruned;
  tune.probed = tr.probed;
  tune.probe_cycles = tr.probe_cycles;
  return *win;
}

}  // namespace

Plan build_plan(const ContextConfig& cfg, const PlanKey& key) {
  Plan plan;
  plan.key = key;
  const TuneCandidate design = resolve_design(cfg, key, plan.tune);
  plan.engine = design_config(cfg, design);
  plan.panel_edge = design.b;
  if (plan.tune.tuned) plan.tune.chosen = engine_signature(plan.engine);

  // Staging, capacity and the blocked-GEMV fallback belong to the machine
  // and the key, not to the chosen design.
  const StagedWords staged = staged_words(cfg, key);
  plan.dram_words = staged.total();
  plan.staging_cycles = staged.cycles(plan.dram_words);
  if (key.kind == OpKind::GemvAuto) {
    plan.onchip_capacity = gemv_onchip_x_capacity(cfg);
    require(plan.onchip_capacity > 0,
            "device has no on-chip memory left for x");
    plan.blocked_gemv = key.cols > plan.onchip_capacity;
  } else if (key.kind == OpKind::Spmxv) {
    plan.onchip_capacity = gemv_onchip_x_capacity(cfg);
    require(key.cols <= plan.onchip_capacity,
            "SpMXV: x does not fit the device's on-chip memory");
  }

  const bool tree_gemv =
      std::holds_alternative<blas2::MxvTreeConfig>(plan.engine) &&
      !plan.blocked_gemv;
  if (std::holds_alternative<blas1::DotConfig>(plan.engine) || tree_gemv) {
    plan.schedule = std::make_shared<sim::ScheduleSlot>();
  }
  return plan;
}

// ---- graph plans -----------------------------------------------------------

GraphPlan build_graph_plan(const ContextConfig& cfg, const GraphDesc& g) {
  g.validate();

  GraphPlan gp;
  gp.signature = g.signature();
  gp.order = g.topo_order();
  gp.node_plans.reserve(g.nodes.size());
  for (const auto& node : g.nodes)
    gp.node_plans.push_back(std::make_shared<const Plan>(
        build_plan(cfg, PlanKey::from(node.desc, cfg.tune))));

  const double capacity = static_cast<double>(cfg.sram_capacity_words);
  const double bank_words =
      capacity / static_cast<double>(cfg.sram_banks ? cfg.sram_banks : 1);

  // Chain partition, greedy in topological order. A chain is a set of
  // nodes executed back-to-back on the fabric with a shared SRAM resident
  // set: retained external operands (staged once for the whole chain) and
  // double-buffered forwarding banks for fused edges.
  struct ChainState {
    double resident = 0.0;
    std::unordered_map<const void*, double> retained;  ///< operand -> words
  };
  std::vector<ChainState> chains;
  gp.chain_of.assign(g.nodes.size(), -1);
  gp.edge_fused.assign(g.edges.size(), false);

  std::vector<StagedWords> words(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i)
    words[i] = staged_words(cfg, gp.node_plans[i]->key);
  // in_skipped[v][slot]: the staging of that operand is not paid (edge
  // forwarded it, or an earlier chain member staged the same vector).
  std::vector<std::array<bool, 3>> in_skipped(g.nodes.size(),
                                              {false, false, false});

  for (std::size_t v : gp.order) {
    const OpDesc& d = g.nodes[v].desc;

    // 1) Try to join a producer's chain across a fusable edge: the
    // intermediate must fit a double-buffered forwarding bank and the
    // chain's resident set must absorb it. First eligible edge (in edge
    // order) wins; determinism over optimality at this scale.
    int chain = -1;
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
      const GraphEdge& e = g.edges[ei];
      if (e.to != v) continue;
      const int cu = gp.chain_of[e.from];
      if (cu < 0) continue;
      const double w = static_cast<double>(op_output_len(g.nodes[e.from].desc));
      if (2.0 * w > bank_words) continue;  // fallback: DRAM staging
      if (chains[static_cast<std::size_t>(cu)].resident + 2.0 * w > capacity)
        continue;
      chain = cu;
      break;
    }

    // 2) Otherwise join a chain that already retains one of this node's
    // DRAM-staged external operands (the Jacobi sweep: many GEMVs sharing
    // one A matrix, no edges between them).
    if (chain < 0) {
      for (std::size_t ci = 0; ci < chains.size() && chain < 0; ++ci) {
        for (OperandSlot s :
             {OperandSlot::A, OperandSlot::B, OperandSlot::X}) {
          const auto* p = slot_pointer(d, s);
          if (!p || words[v].in[static_cast<std::size_t>(s)] <= 0.0) continue;
          if (chains[ci].retained.count(p)) {
            chain = static_cast<int>(ci);
            break;
          }
        }
      }
    }

    if (chain < 0) {
      chains.emplace_back();
      chain = static_cast<int>(chains.size()) - 1;
    }
    ChainState& cs = chains[static_cast<std::size_t>(chain)];
    gp.chain_of[v] = chain;

    // Fuse every in-edge whose producer sits in this chain and whose
    // forwarding buffer fits; the rest fall back to DRAM staging.
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei) {
      const GraphEdge& e = g.edges[ei];
      if (e.to != v || gp.chain_of[e.from] != chain) continue;
      const double w = static_cast<double>(op_output_len(g.nodes[e.from].desc));
      if (2.0 * w > bank_words || cs.resident + 2.0 * w > capacity) continue;
      gp.edge_fused[ei] = true;
      ++gp.fused_edges;
      cs.resident += 2.0 * w;
      in_skipped[v][static_cast<std::size_t>(e.slot)] = true;
    }

    // Retain this node's external vector operands for chain reuse when they
    // fit (a retained operand that a later member would have re-staged is
    // the shared-staging win; x-type operands are SRAM-resident by the
    // single-op model and retaining them lets e.g. a CG dot reuse p for
    // free). Operands that do not fit are streamed, not retained: no
    // sharing for them — that is the capacity-fallback path.
    for (OperandSlot s : {OperandSlot::A, OperandSlot::B, OperandSlot::X}) {
      const auto* p = slot_pointer(d, s);
      if (!p || op_slot_len(d, s) == 0) continue;
      const auto it = cs.retained.find(p);
      if (it != cs.retained.end()) {
        if (words[v].in[static_cast<std::size_t>(s)] > 0.0 &&
            !in_skipped[v][static_cast<std::size_t>(s)]) {
          in_skipped[v][static_cast<std::size_t>(s)] = true;
          ++gp.shared_operands;
        }
        continue;
      }
      const double w = static_cast<double>(op_slot_len(d, s));
      if (cs.resident + w <= capacity) {
        cs.retained.emplace(p, w);
        cs.resident += w;
      }
    }
  }
  gp.chains = chains.size();

  // A non-kept result whose every consumer edge is fused never leaves the
  // fabric: its DRAM writeback is skipped. (keep=true results still pay
  // the writeback even when also forwarded — the host asked for them.)
  std::vector<bool> skip_out(g.nodes.size(), false);
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    if (g.nodes[i].keep || words[i].out <= 0.0) continue;
    bool all_fused = true;
    for (std::size_t ei = 0; ei < g.edges.size(); ++ei)
      if (g.edges[ei].from == i && !gp.edge_fused[ei]) all_fused = false;
    skip_out[i] = all_fused;
  }

  // Per-node staging budgets: unfused is the node's single-op plan, fused
  // what the chain leaves of the same per-slot breakdown.
  gp.staging.resize(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    NodeStaging& st = gp.staging[i];
    const StagedWords& w = words[i];
    st.unfused_words = gp.node_plans[i]->dram_words;
    st.unfused_cycles = gp.node_plans[i]->staging_cycles;
    double fused = 0.0;
    for (std::size_t s = 0; s < 3; ++s)
      if (!in_skipped[i][s]) fused += w.in[s];
    if (!skip_out[i]) fused += w.out;
    st.fused_words = fused;
    st.fused_cycles = w.cycles(fused);
    gp.staging_saved_cycles += st.unfused_cycles - st.fused_cycles;
    gp.staging_saved_words += st.unfused_words - st.fused_words;
  }
  return gp;
}

namespace {

/// The one cache walk for op, pinned and graph plans: probe under `mu`,
/// build outside it, re-probe, then adopt the winner or insert.
template <typename Probe, typename Build, typename Insert>
auto probe_or_build(std::mutex& mu, const Probe& probe, const Build& build,
                    const Insert& insert) {
  {
    std::lock_guard<std::mutex> lock(mu);
    if (auto hit = probe()) return hit;
  }
  // Build outside the lock: plan construction can throw (ConfigError) and,
  // for GEMM, walks the panel-edge search — no reason to serialize that.
  auto plan = build();
  std::lock_guard<std::mutex> lock(mu);
  // Another thread may have built the same key first; adopt theirs (plans
  // for one key are identical by construction).
  if (auto hit = probe()) return hit;
  insert(plan);
  return plan;
}

}  // namespace

std::shared_ptr<const Plan> PlanCache::get_or_build(const ContextConfig& cfg,
                                                    const PlanKey& key) {
  return probe_or_build(
      mu_, [&]() -> std::shared_ptr<const Plan> {
        if (!pinned_.empty()) {
          const auto pit = pinned_.find(key);
          if (pit != pinned_.end()) {
            ops_.hits.fetch_add(1, std::memory_order_relaxed);
            return pit->second;
          }
        }
        return ops_.find(key);
      },
      [&] { return std::make_shared<const Plan>(build_plan(cfg, key)); },
      [&](const std::shared_ptr<const Plan>& plan) {
        count_tuning(*plan);
        ops_.insert(key, plan, capacity_);
      });
}

std::shared_ptr<const Plan> PlanCache::pin(const ContextConfig& cfg,
                                           const PlanKey& key) {
  return probe_or_build(
      mu_, [&]() -> std::shared_ptr<const Plan> {
        const auto pit = pinned_.find(key);
        if (pit != pinned_.end()) {
          ops_.hits.fetch_add(1, std::memory_order_relaxed);
          return pit->second;
        }
        // Promote an existing LRU entry: the plan moves out of the eviction
        // order, freeing its LRU slot.
        auto plan = ops_.take(key);
        if (plan) {
          ops_.hits.fetch_add(1, std::memory_order_relaxed);
          pinned_.emplace(key, plan);
        }
        return plan;
      },
      [&] { return std::make_shared<const Plan>(build_plan(cfg, key)); },
      [&](const std::shared_ptr<const Plan>& plan) {
        count_tuning(*plan);
        ops_.misses.fetch_add(1, std::memory_order_relaxed);
        pinned_.emplace(key, plan);
      });
}

void PlanCache::count_tuning(const Plan& plan) {
  if (!plan.tune.tuned) return;
  tuned_plans_.fetch_add(1, std::memory_order_relaxed);
  tune_candidates_.fetch_add(plan.tune.candidates, std::memory_order_relaxed);
  tune_pruned_.fetch_add(plan.tune.pruned, std::memory_order_relaxed);
  tune_probes_.fetch_add(plan.tune.probed, std::memory_order_relaxed);
  tune_probe_cycles_.fetch_add(plan.tune.probe_cycles,
                               std::memory_order_relaxed);
}

std::shared_ptr<const GraphPlan> PlanCache::get_or_build_graph(
    const ContextConfig& cfg, const GraphDesc& g) {
  // Backend and tune policy key the entry for the same reasons they key
  // PlanKey; the signature covers everything structural about the graph.
  const std::string key =
      cat(static_cast<int>(fp::active_backend().kind), ':',
          static_cast<int>(cfg.tune), '|', g.signature());
  return probe_or_build(
      mu_, [&] { return graphs_.find(key); },
      [&] { return std::make_shared<const GraphPlan>(build_graph_plan(cfg, g)); },
      [&](const std::shared_ptr<const GraphPlan>& plan) {
        graphs_.insert(key, plan, capacity_);
      });
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_.map.size();
}

std::size_t PlanCache::pinned_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pinned_.size();
}

std::size_t PlanCache::graph_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_.map.size();
}

PlanCache::ScheduleUse PlanCache::schedule_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return schedule_use_locked();
}

PlanCache::ScheduleUse PlanCache::schedule_use_locked() const {
  ScheduleUse use;
  const auto count = [&use](const Plan& plan) {
    if (const sim::Schedule* s = plan.schedule ? plan.schedule->get() : nullptr) {
      ++use.schedules;
      use.bytes += s->bytes();
    }
  };
  for (const auto& [key, entry] : ops_.map) count(*entry.plan);
  for (const auto& [key, plan] : pinned_) count(*plan);
  for (const auto& [key, entry] : graphs_.map) {
    for (const auto& node : entry.plan->node_plans) count(*node);
  }
  return use;
}

void PlanCache::publish(telemetry::Session& tel) const {
  // Graph-plan entries are accounted separately: host.plan.{hits,misses}
  // stay a pure single-op hit-rate, undiluted by graph keys. The tuner
  // gauges (zero under TunePolicy::Fixed) show how many plans went through
  // design selection, how much of the candidate space the area model
  // pruned, and what the probe runs cost in simulated cycles.
  const auto load = [](const std::atomic<u64>& a) {
    return static_cast<double>(a.load(std::memory_order_relaxed));
  };
  std::size_t lru = 0, pinned = 0, graphs = 0;
  ScheduleUse use;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lru = ops_.map.size();
    pinned = pinned_.size();
    graphs = graphs_.map.size();
    use = schedule_use_locked();
  }
  const double values[] = {
      static_cast<double>(hits()),
      static_cast<double>(misses()),
      static_cast<double>(evictions()),
      static_cast<double>(lru),
      static_cast<double>(capacity()),
      static_cast<double>(pinned),
      static_cast<double>(graphs),
      static_cast<double>(graph_hits()),
      static_cast<double>(graph_misses()),
      static_cast<double>(graph_evictions()),
      load(tuned_plans_),
      load(tune_candidates_),
      load(tune_pruned_),
      load(tune_probes_),
      load(tune_probe_cycles_),
  };
  gauges_.set_gauges(tel.metrics(), values);
  // Recorded reduction schedules held by cached plans (single-op, pinned
  // and graph nodes) and their footprint. The pair appears once a plan
  // first holds a schedule, so sessions that run no dot or tree GEMV keep
  // their metric vocabulary, and stays current from then on.
  if (use.schedules > 0 || tel.metrics().contains("host.plan.schedules")) {
    const double held[] = {static_cast<double>(use.schedules),
                           static_cast<double>(use.bytes)};
    schedule_gauges_.set_gauges(tel.metrics(), held);
  }
}

}  // namespace xd::host
