// Plan layer: everything about an operation that depends only on
// (op kind, shapes, placement, architecture) and the machine configuration
// — not on the operand values — computed once and memoized.
//
// build_plan() is the one plan builder for every tune policy. It resolves
// the key to a design (family, k, m, l, b): the configured one under
// TunePolicy::Fixed, the tuner's winner under Model and Probe (host/
// tuner.hpp). The design goes through one emitter (design_config) and one
// finishing step that adds the DRAM staging cost for Placement::Dram, the
// GEMV on-chip capacity check and the blocked-GEMV fallback. Building a
// plan runs all shape validation that does not need the operand data, so a
// cached hit skips validation, configuration and floorplanning entirely.
//
// PlanCache is a bounded, mutex-guarded LRU keyed by PlanKey; it is shared
// by the synchronous facade and the concurrent runtime, and publishes
// hit/miss/eviction counts as the host.plan.* gauges.
#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <variant>

#include "blas2/mxv_col.hpp"
#include "fp/backend.hpp"
#include "host/graph.hpp"
#include "host/op.hpp"
#include "mem/bram.hpp"
#include "sim/schedule.hpp"

namespace xd::host {

/// The memoization key: every input of plan construction besides the
/// machine configuration (one cache belongs to one configuration). The
/// active fp backend is part of the key: timing never depends on it, but a
/// plan cached under one backend must not satisfy a lookup made under a
/// ScopedBackend override, or a backend-equivalence rerun would silently
/// reuse state from the other arm of the comparison.
struct PlanKey {
  OpKind kind = OpKind::Dot;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t n = 0;
  std::size_t batch = 0;
  Placement placement = Placement::Sram;
  GemvArch arch = GemvArch::Tree;
  fp::BackendKind backend = fp::BackendKind::Soft;
  /// The tune policy is part of the key: a tuned plan may resolve to a
  /// different engine family than the fixed one for the same descriptor, so
  /// a cache shared across policies (e.g. by tests or the fuzz harness
  /// flipping cfg.tune) must never satisfy one policy's lookup with the
  /// other's plan.
  TunePolicy tune = TunePolicy::Fixed;

  bool operator==(const PlanKey&) const = default;

  static PlanKey from(const OpDesc& desc, TunePolicy tune = TunePolicy::Fixed) {
    return PlanKey{desc.kind,  desc.rows,      desc.cols, desc.n,
                   desc.batch, desc.placement, desc.arch,
                   fp::active_backend().kind, tune};
  }
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const;
};

/// One engine configuration, whichever the op resolved to. Stored with a
/// null telemetry pointer; the runtime patches the session in on the copy
/// it hands to the engine.
using EngineConfig =
    std::variant<blas1::DotConfig, blas2::MxvTreeConfig, blas2::MxvColConfig,
                 blas2::SpmxvConfig, blas3::MmArrayConfig, blas3::MmHierConfig,
                 blas3::MmMultiConfig>;

/// What the tuner did while building a plan (host.tuner.* telemetry).
struct TuneSummary {
  bool tuned = false;        ///< plan built under Model/Probe policy
  u64 candidates = 0;        ///< designs enumerated
  u64 pruned = 0;            ///< rejected by area/BRAM/bank/hazard budgets
  u64 probed = 0;            ///< candidates validated by simulator probes
  u64 probe_cycles = 0;      ///< total simulated probe cycles
  std::string chosen;        ///< engine_signature() of the winner
};

struct Plan {
  PlanKey key;
  EngineConfig engine;
  u64 staging_cycles = 0;        ///< prepended for Placement::Dram
  double dram_words = 0.0;       ///< words staged across the DRAM link
  std::size_t panel_edge = 0;    ///< GEMM: chosen SRAM panel edge b
  std::size_t onchip_capacity = 0;  ///< GEMV: words of x that fit on chip
  bool blocked_gemv = false;     ///< GemvAuto resolved to the blocked variant
  TuneSummary tune;              ///< empty/default under TunePolicy::Fixed
  /// Dot and tree-GEMV plans: the reduction schedule the plan's first run
  /// records and later runs replay (sim/schedule.hpp). Null for the other
  /// engines, which always simulate. Copies of a plan share the slot.
  std::shared_ptr<sim::ScheduleSlot> schedule;
};

// ---- configuration-derived helpers -----------------------------------------

/// Largest SRAM panel edge <= mm_b that tiles the given n (throws
/// ConfigError if none exists — use the compat layer's padding then — or
/// if mm_m, mm_b or mm_l is zero).
std::size_t choose_panel_edge(const ContextConfig& cfg, std::size_t n);

/// BRAM words the reduction-circuit designs (dot, tree GEMV, SpMXV) hold
/// besides their x store: the two alpha^2 reduction buffers and the
/// staging FIFOs of gemv_bram_plan.
u64 reduction_buffer_words(const ContextConfig& cfg);

/// BRAM floorplan of the GEMV design for a cols-wide x; throws ConfigError
/// if the design cannot be built on the configured device.
mem::BramBudget gemv_bram_plan(const ContextConfig& cfg, std::size_t cols);

/// BRAM floorplan of the GEMM array (2 m^2 block stores + B registers).
mem::BramBudget gemm_bram_plan(const ContextConfig& cfg);

/// Words of x the GEMV design can keep on-chip next to its buffers.
std::size_t gemv_onchip_x_capacity(const ContextConfig& cfg);

/// Build the immutable plan for one key under its tune policy. All
/// validation and configuration that the shapes allow happens here, once
/// per distinct key; throws ConfigError (including a zero mm_m, mm_b or
/// mm_l for a configured GEMM design).
Plan build_plan(const ContextConfig& cfg, const PlanKey& key);

// ---- graph plans -----------------------------------------------------------

/// Per-node staging budget inside a graph plan. `unfused_*` is the node's
/// single-op Plan's staging (per-op execution); `fused_*` is
/// what it pays inside its chain, after SRAM forwarding skipped edge-fed
/// operand stagings, chain-shared externals were staged once, and
/// non-kept, fully-forwarded results dropped their writeback. Cycles are in
/// the node's own staging clock domain (== its engine clock).
struct NodeStaging {
  u64 fused_cycles = 0;
  double fused_words = 0.0;
  u64 unfused_cycles = 0;
  double unfused_words = 0.0;
};

/// The planned execution of a GraphDesc: one single-op Plan per node (built
/// directly, NOT through the single-op LRU — graph planning must not evict
/// hot single-op entries or dilute their hit-rate telemetry), the
/// deterministic topological order, the chain partition, and the staging
/// deltas fusion buys. Value-independent: two graphs with equal
/// signature() get byte-identical plans.
struct GraphPlan {
  std::string signature;
  std::vector<std::shared_ptr<const Plan>> node_plans;  ///< per node index
  std::vector<std::size_t> order;    ///< topological execution order
  std::vector<NodeStaging> staging;  ///< per node index
  std::vector<bool> edge_fused;      ///< per edge: forwarded on-chip
  std::vector<int> chain_of;         ///< chain id per node index
  std::size_t chains = 0;
  u64 fused_edges = 0;
  u64 shared_operands = 0;  ///< external stagings skipped by chain sharing
  /// Per-op-minus-fused staging, summed across nodes; each node's term is
  /// in that node's own clock domain (the runtime normalizes when it
  /// aggregates into a GraphOutcome).
  u64 staging_saved_cycles = 0;
  double staging_saved_words = 0.0;
};

/// Partition the DAG into fusable chains and derive each node's fused
/// staging budget under the tuner's SRAM model (cfg.sram_banks /
/// cfg.sram_capacity_words): a forwarded intermediate needs a
/// double-buffered bank (2*words <= capacity/banks), a chain's resident
/// set (retained shared operands + live forwarding buffers) must fit total
/// capacity, and any edge that does not fit falls back to full DRAM
/// staging. Validates the graph; throws ConfigError.
GraphPlan build_graph_plan(const ContextConfig& cfg, const GraphDesc& g);

class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 64)
      : capacity_(capacity == 0 ? 1 : capacity),
        gauges_(telemetry::MetricKind::Gauge,
                {"host.plan.hits", "host.plan.misses", "host.plan.evictions",
                 "host.plan.size", "host.plan.capacity", "host.plan.pinned",
                 "host.plan.graphs", "host.plan.graph_hits",
                 "host.plan.graph_misses", "host.plan.graph_evictions",
                 "host.tuner.plans", "host.tuner.candidates",
                 "host.tuner.pruned_area", "host.tuner.probes",
                 "host.tuner.probe_cycles"}),
        schedule_gauges_(telemetry::MetricKind::Gauge,
                         {"host.plan.schedules", "host.plan.schedule_bytes"}) {}

  /// Return the cached plan for `key`, building (and possibly evicting the
  /// least recently used entry) on a miss. Thread-safe.
  std::shared_ptr<const Plan> get_or_build(const ContextConfig& cfg,
                                           const PlanKey& key);

  /// Like get_or_build, but the entry is promoted out of the LRU into the
  /// pinned set: it can never be evicted and does not consume LRU capacity.
  /// Hot paths hold the returned pointer and skip the probe entirely;
  /// lookups that do go through get_or_build still find pinned entries
  /// first (counted as hits). Pinning the same key twice is idempotent.
  std::shared_ptr<const Plan> pin(const ContextConfig& cfg, const PlanKey& key);

  /// Return the cached graph plan for `g`, keyed by backend + tune policy +
  /// GraphDesc::signature(). Graph entries live in their own LRU with their
  /// own hit/miss/eviction counters and the same capacity budget, so graph
  /// traffic never evicts single-op plans or skews host.plan.{hits,misses}.
  std::shared_ptr<const GraphPlan> get_or_build_graph(const ContextConfig& cfg,
                                                      const GraphDesc& g);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;        ///< LRU entries only (excludes pinned)
  std::size_t pinned_count() const;
  std::size_t graph_size() const;
  u64 hits() const { return ops_.hits.load(std::memory_order_relaxed); }
  u64 misses() const { return ops_.misses.load(std::memory_order_relaxed); }
  u64 evictions() const {
    return ops_.evictions.load(std::memory_order_relaxed);
  }
  u64 graph_hits() const {
    return graphs_.hits.load(std::memory_order_relaxed);
  }
  u64 graph_misses() const {
    return graphs_.misses.load(std::memory_order_relaxed);
  }
  u64 graph_evictions() const {
    return graphs_.evictions.load(std::memory_order_relaxed);
  }

  /// Recorded schedules held by the cached plans, graph nodes included.
  struct ScheduleUse {
    std::size_t schedules = 0;
    std::size_t bytes = 0;
  };
  ScheduleUse schedule_use() const;

  /// Set the host.plan.* gauges from the current counters (publish-at-end
  /// idiom; idempotent, unlike counter adds). Callers serialize publishes
  /// as they do recording into `tel` (the gauge handles are cached).
  void publish(telemetry::Session& tel) const;

 private:
  std::size_t capacity_;
  mutable std::mutex mu_;

  /// One LRU map of plans with its own hit/miss/eviction counters. The
  /// front of `order` is the most recently used key; entries point into it.
  /// Every member function runs under mu_.
  template <typename Key, typename Value, typename Hash>
  struct Lru {
    struct Entry {
      std::shared_ptr<const Value> plan;
      typename std::list<Key>::iterator pos;
    };
    std::list<Key> order;
    std::unordered_map<Key, Entry, Hash> map;
    std::atomic<u64> hits{0};
    std::atomic<u64> misses{0};
    std::atomic<u64> evictions{0};

    /// The cached plan (a hit, refreshing its recency) or null.
    std::shared_ptr<const Value> find(const Key& key) {
      const auto it = map.find(key);
      if (it == map.end()) return nullptr;
      hits.fetch_add(1, std::memory_order_relaxed);
      order.splice(order.begin(), order, it->second.pos);
      return it->second.plan;
    }
    /// Remove and return the cached plan, or null; counts nothing.
    std::shared_ptr<const Value> take(const Key& key) {
      const auto it = map.find(key);
      if (it == map.end()) return nullptr;
      auto plan = std::move(it->second.plan);
      order.erase(it->second.pos);
      map.erase(it);
      return plan;
    }
    /// Insert a freshly built plan (a miss), evicting beyond `capacity`.
    void insert(const Key& key, std::shared_ptr<const Value> plan,
                std::size_t capacity) {
      misses.fetch_add(1, std::memory_order_relaxed);
      order.push_front(key);
      map[key] = Entry{std::move(plan), order.begin()};
      while (map.size() > capacity) {
        map.erase(order.back());
        order.pop_back();
        evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  Lru<PlanKey, Plan, PlanKeyHash> ops_;
  /// Pinned plans: outside the LRU, never evicted, found before the LRU on
  /// lookup. Small by construction (one entry per explicitly pinned shape).
  std::unordered_map<PlanKey, std::shared_ptr<const Plan>, PlanKeyHash> pinned_;
  /// Graph plans, keyed by the graph cache key string.
  Lru<std::string, GraphPlan, std::hash<std::string>> graphs_;
  // Aggregated tuner activity across plan builds (host.tuner.* gauges).
  std::atomic<u64> tuned_plans_{0};
  std::atomic<u64> tune_candidates_{0};
  std::atomic<u64> tune_pruned_{0};
  std::atomic<u64> tune_probes_{0};
  std::atomic<u64> tune_probe_cycles_{0};
  mutable telemetry::MetricList gauges_;  ///< publish()'s, in value order
  mutable telemetry::MetricList schedule_gauges_;

  ScheduleUse schedule_use_locked() const;  ///< mu_ held
  /// Add a newly cached or pinned plan's tuner activity to host.tuner.*.
  void count_tuning(const Plan& plan);
};

}  // namespace xd::host
