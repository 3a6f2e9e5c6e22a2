#include "host/plan.hpp"

#include <array>
#include <cmath>

#include "host/tuner.hpp"
#include "telemetry/session.hpp"

namespace xd::host {

namespace {

/// Cycles to stage `words` across a link of `words_per_cycle` (DRAM<->SRAM
/// DMA; the FPGA design is idle during staging, per the Table 4 methodology).
u64 staging_cycles_for(double words, double wpc) {
  return static_cast<u64>(std::ceil(words / wpc));
}

/// Fixed BRAM overheads of the tree GEMV design besides the x store: the
/// two alpha^2 reduction buffers and the small staging FIFOs.
u64 gemv_buffer_words(unsigned adder_stages) {
  return 2ull * adder_stages * adder_stages + 128;
}

void hash_combine(std::size_t& seed, std::size_t v) {
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

blas2::MxvTreeConfig gemv_tree_config(const ContextConfig& cfg) {
  blas2::MxvTreeConfig tc;
  tc.k = cfg.gemv_k;
  tc.adder_stages = cfg.adder_stages;
  tc.multiplier_stages = cfg.multiplier_stages;
  tc.mem_words_per_cycle = static_cast<double>(cfg.gemv_k);  // 1 word/bank
  tc.clock_mhz = cfg.gemv_clock_mhz;
  return tc;
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

mem::BramBudget gemv_bram_plan(const ContextConfig& cfg, std::size_t cols) {
  mem::BramBudget plan(cfg.device);
  plan.allocate("reduction buffers (2 alpha^2)",
                2ull * cfg.adder_stages * cfg.adder_stages);
  plan.allocate("staging FIFOs", 128);
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
  const u64 fixed = gemv_buffer_words(cfg.adder_stages);
  return cap > fixed ? static_cast<std::size_t>(cap - fixed) : 0;
}

namespace {

Plan build_fixed_plan(const ContextConfig& cfg, const PlanKey& key) {
  Plan plan;
  plan.key = key;

  switch (key.kind) {
    case OpKind::Dot:
    case OpKind::DotBatch: {
      blas1::DotConfig dc;
      dc.k = cfg.dot_k;
      dc.adder_stages = cfg.adder_stages;
      dc.multiplier_stages = cfg.multiplier_stages;
      dc.mem_words_per_cycle =
          words_per_cycle(cfg.dot_mem_bytes_per_s, cfg.dot_clock_mhz);
      dc.clock_mhz = cfg.dot_clock_mhz;
      plan.engine = dc;
      if (key.kind == OpKind::Dot && key.placement == Placement::Dram) {
        // The staging link is the same RapidArray DMA path the GEMV design
        // measures; cycles are counted at the dot design's clock.
        const double wpc =
            words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.dot_clock_mhz);
        plan.dram_words = static_cast<double>(2 * key.cols);
        plan.staging_cycles = staging_cycles_for(plan.dram_words, wpc);
      }
      break;
    }

    case OpKind::Gemv: {
      if (key.arch == GemvArch::Tree) {
        plan.engine = gemv_tree_config(cfg);
      } else {
        blas2::MxvColConfig cc;
        cc.k = cfg.gemv_k;
        cc.adder_stages = cfg.adder_stages;
        cc.multiplier_stages = cfg.multiplier_stages;
        cc.mem_words_per_cycle = static_cast<double>(cfg.gemv_k) + 1.0;
        cc.clock_mhz = cfg.gemv_clock_mhz;
        plan.engine = cc;
      }
      if (key.placement == Placement::Dram) {
        // Table 4: 6.4 of the 8.0 ms GEMV latency is this data movement.
        const double wpc =
            words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.gemv_clock_mhz);
        plan.dram_words = static_cast<double>(key.rows * key.cols + key.rows);
        plan.staging_cycles = staging_cycles_for(plan.dram_words, wpc);
      }
      break;
    }

    case OpKind::GemvAuto: {
      plan.onchip_capacity = gemv_onchip_x_capacity(cfg);
      require(plan.onchip_capacity > 0,
              "device has no on-chip memory left for x");
      plan.blocked_gemv = key.cols > plan.onchip_capacity;
      plan.engine = gemv_tree_config(cfg);
      break;
    }

    case OpKind::Spmxv: {
      plan.onchip_capacity = gemv_onchip_x_capacity(cfg);
      require(key.cols <= plan.onchip_capacity,
              "SpMXV: x does not fit the device's on-chip memory");
      blas2::SpmxvConfig sc;
      sc.k = cfg.gemv_k;
      sc.adder_stages = cfg.adder_stages;
      sc.multiplier_stages = cfg.multiplier_stages;
      // Value + index pairs: two SRAM banks feed one CRS element per cycle
      // pair.
      sc.mem_elements_per_cycle = static_cast<double>(cfg.gemv_k) / 2.0;
      sc.clock_mhz = cfg.gemv_clock_mhz;
      plan.engine = sc;
      break;
    }

    case OpKind::Gemm: {
      blas3::MmHierConfig hc;
      hc.l = cfg.mm_l;
      hc.k = cfg.mm_k;
      hc.m = cfg.mm_m;
      hc.b = key.n % cfg.mm_b == 0 ? cfg.mm_b : choose_panel_edge(cfg, key.n);
      hc.adder_stages = cfg.mm_adder_stages;
      hc.multiplier_stages = cfg.multiplier_stages;
      hc.clock_mhz = cfg.mm_clock_mhz;
      hc.dram_words_per_cycle =
          words_per_cycle(cfg.mm_dram_bytes_per_s, cfg.mm_clock_mhz);
      hc.link_words_per_cycle =
          words_per_cycle(cfg.mm_link_bytes_per_s, cfg.mm_clock_mhz);
      plan.panel_edge = hc.b;
      plan.engine = hc;
      break;
    }

    case OpKind::GemmArray: {
      blas3::MmArrayConfig mc;
      mc.k = cfg.mm_k;
      mc.m = cfg.mm_m;
      mc.adder_stages = cfg.mm_adder_stages;
      mc.multiplier_stages = cfg.multiplier_stages;
      mc.mem_words_per_cycle = 4.0;  // four SRAM banks feed the array
      mc.clock_mhz = cfg.mm_clock_mhz;
      plan.engine = mc;
      break;
    }

    case OpKind::GemmMulti: {
      blas3::MmMultiConfig mc;
      mc.l = cfg.mm_l;
      mc.k = cfg.mm_k;
      mc.m = cfg.mm_m;
      mc.b = cfg.mm_b;
      mc.clock_mhz = cfg.mm_clock_mhz;
      mc.dram_words_per_cycle =
          words_per_cycle(cfg.mm_dram_bytes_per_s, cfg.mm_clock_mhz);
      mc.link_words_per_cycle =
          words_per_cycle(cfg.mm_link_bytes_per_s, cfg.mm_clock_mhz);
      plan.panel_edge = mc.b;
      plan.engine = mc;
      break;
    }
  }
  return plan;
}

}  // namespace

Plan build_plan(const ContextConfig& cfg, const PlanKey& key) {
  Plan plan = key.tune == TunePolicy::Fixed ? build_fixed_plan(cfg, key)
                                            : build_tuned_plan(cfg, key);
  const bool tree_gemv =
      std::holds_alternative<blas2::MxvTreeConfig>(plan.engine) &&
      !plan.blocked_gemv;
  if (std::holds_alternative<blas1::DotConfig>(plan.engine) || tree_gemv) {
    plan.schedule = std::make_shared<sim::ScheduleSlot>();
  }
  return plan;
}

// ---- graph plans -----------------------------------------------------------

namespace {

/// Per-slot DRAM staging decomposition of one node, consistent with the
/// single-op totals build_plan derives: a Dram dot stages both operand
/// vectors (2*cols at the dot clock), a Dram gemv streams A and writes y
/// back (rows*cols + rows at the gemv clock) with x assumed SRAM-resident,
/// and every other kind stages nothing today.
struct StagedWords {
  double in[3] = {0.0, 0.0, 0.0};  ///< indexed by OperandSlot
  double out = 0.0;                ///< result writeback
  double wpc = 0.0;                ///< staging link words/cycle (node clock)
  double total() const { return in[0] + in[1] + in[2] + out; }
};

StagedWords staged_words_for(const ContextConfig& cfg, const OpDesc& d) {
  StagedWords w;
  if (d.placement != Placement::Dram) return w;
  switch (d.kind) {
    case OpKind::Dot:
      w.in[0] = static_cast<double>(d.cols);
      w.in[1] = static_cast<double>(d.cols);
      w.wpc = words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.dot_clock_mhz);
      break;
    case OpKind::Gemv:
      w.in[0] = static_cast<double>(d.rows) * static_cast<double>(d.cols);
      w.out = static_cast<double>(d.rows);
      w.wpc = words_per_cycle(cfg.gemv_dram_bytes_per_s, cfg.gemv_clock_mhz);
      break;
    default:
      break;  // no DRAM staging modeled for the other kinds
  }
  return w;
}

/// Resident words an operand slot pins when a chain retains it for reuse.
double slot_words(const OpDesc& d, OperandSlot s) {
  return static_cast<double>(op_slot_len(d, s));
}

}  // namespace

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
    words[i] = staged_words_for(cfg, g.nodes[i].desc);
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
          const auto* p = [&]() -> const std::vector<double>* {
            switch (s) {
              case OperandSlot::A: return d.a;
              case OperandSlot::B: return d.b;
              case OperandSlot::X: return d.x;
            }
            return nullptr;
          }();
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
      const auto* p = [&]() -> const std::vector<double>* {
        switch (s) {
          case OperandSlot::A: return d.a;
          case OperandSlot::B: return d.b;
          case OperandSlot::X: return d.x;
        }
        return nullptr;
      }();
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
      const double w = slot_words(d, s);
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

  // Per-node staging budgets. The unfused figure must reproduce the
  // single-op plan exactly (one ceil over the node's total words).
  gp.staging.resize(g.nodes.size());
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    NodeStaging& st = gp.staging[i];
    const StagedWords& w = words[i];
    st.unfused_words = w.total();
    st.unfused_cycles =
        st.unfused_words > 0.0 ? staging_cycles_for(st.unfused_words, w.wpc) : 0;
    double fused = 0.0;
    for (std::size_t s = 0; s < 3; ++s)
      if (!in_skipped[i][s]) fused += w.in[s];
    if (!skip_out[i]) fused += w.out;
    st.fused_words = fused;
    st.fused_cycles = fused > 0.0 ? staging_cycles_for(fused, w.wpc) : 0;
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
