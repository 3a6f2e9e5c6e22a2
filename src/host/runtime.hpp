// Runtime layer: the plan/execute engine behind host::Context.
//
// A Runtime binds one machine configuration to the process-wide ThreadPool
// and a PlanCache. Operations arrive as OpDescs and leave as Outcomes:
//
//   host::Runtime rt(cfg);
//   auto fut = rt.submit(OpDesc::gemv(a, n, n, x));   // async, pooled
//   Outcome out = fut.get();                          // value or exception
//
// run() executes on the calling thread; submit() executes on the shared
// worker pool. Engine simulations are deterministic and self-contained, so
// N concurrent submits produce bit-identical values and cycle counts to N
// sequential runs — tests/test_runtime.cpp holds this invariant.
//
// Thread-safety contract: Runtime itself is thread-safe (the plan cache is
// mutex-guarded, the stats are atomic), and so is telemetry on a shared
// session. run() records directly into the session under its lock; a
// submitted job records into a thread-local shard session and folds it in
// at completion (Session::merge), so concurrent submits observe full
// spans and metrics — there is no detached mode. Recording never perturbs
// outcomes: telemetry is not part of the PlanKey and engines compute
// identically with or without it (the fuzz harness's telemetry-neutrality
// invariant covers both run() and submit()).
//
// Every operation also stamps a telemetry::TraceContext (per-op id +
// submit/dequeue/plan/exec/complete wall-clock edges) and deposits it in
// the session's flight recorder; queue-wait / exec / end-to-end latencies
// feed the host.runtime.* histograms with p50/p95/p99 exports.
//
// Operand vectors referenced by an OpDesc must stay alive until its future
// has been consumed.
#pragma once

#include <future>
#include <vector>

#include "common/thread_pool.hpp"
#include "host/plan.hpp"

namespace xd::telemetry {
struct TraceContext;
}

namespace xd::host {

/// An interned plan: shared, immutable, and exempt from plan-cache
/// eviction. Hot paths (the serve daemon, run_batch, iterative solvers)
/// resolve their shapes once via Runtime::pin_plan and hand the handle
/// back to run()/submit(), skipping the mutex-guarded LRU probe per op.
/// A handle is purely a fast path: if it does not match the descriptor's
/// key at execution time (different shape, or a ScopedBackend override
/// active), the runtime falls back to the normal cache lookup — outcomes
/// are always identical with or without the handle.
class PlanHandle {
 public:
  PlanHandle() = default;
  bool valid() const { return plan_ != nullptr; }
  const Plan& plan() const { return *plan_; }

 private:
  friend class Runtime;
  explicit PlanHandle(std::shared_ptr<const Plan> plan)
      : plan_(std::move(plan)) {}
  std::shared_ptr<const Plan> plan_;
};

struct RuntimeStats {
  u64 submitted = 0;  ///< jobs handed to submit()/run_batch()
  u64 completed = 0;  ///< jobs finished successfully (sync + async)
  u64 failed = 0;     ///< jobs that ended in an exception
  u64 queued = 0;     ///< submitted but not yet picked up by a worker
  u64 in_flight = 0;  ///< currently executing on a worker
};

class Runtime {
 public:
  /// `pool` defaults to the process-wide shared pool.
  explicit Runtime(const ContextConfig& cfg, ThreadPool* pool = nullptr);

  /// Execute on the calling thread, with telemetry recorded directly into
  /// the configuration's session under its lock (the synchronous Context
  /// facade path — lane 0 of the span timeline).
  Outcome run(const OpDesc& desc);

  /// Execute on the worker pool; the future carries the Outcome or the
  /// exception (ConfigError and friends) the job raised. Telemetry records
  /// into a thread-local shard and merges into the session at completion,
  /// on lane worker-id + 1.
  std::future<Outcome> submit(const OpDesc& desc);

  /// Build (or adopt) and pin the plan for `desc`'s shape: the entry moves
  /// out of the LRU eviction order into the pinned set, and the returned
  /// handle short-circuits the plan probe when passed to run()/submit().
  PlanHandle pin_plan(const OpDesc& desc);

  /// run()/submit() with a pinned plan: identical semantics and outcomes,
  /// minus the per-op plan-cache probe when the handle matches.
  Outcome run(const OpDesc& desc, const PlanHandle& plan);
  std::future<Outcome> submit(const OpDesc& desc, const PlanHandle& plan);

  /// Submit every descriptor, then wait for all of them in order. Throws
  /// the first failed job's exception after all jobs settled. Runs of
  /// consecutive descriptors with identical PlanKeys take a fast path: one
  /// pooled job stages the whole run under a single plan resolution (each
  /// op keeps its own Outcome, trace context and flight-recorder entry).
  std::vector<Outcome> run_batch(const std::vector<OpDesc>& descs);

  /// Execute an op DAG on the calling thread: plan the chain partition
  /// (cached by graph signature), then run the nodes in topological order
  /// with producer results forwarded into edge-fed operand slots and the
  /// fused staging budgets from the GraphPlan in place of the per-op ones.
  /// Node outcomes are bit-identical to per-op execution — fusion changes
  /// staging cycle accounting, never values or compute cycles.
  GraphOutcome run_graph(const GraphDesc& g);

  /// run_graph on the worker pool; one job executes the whole graph (fused
  /// chains are sequential by construction). Same telemetry shard/merge
  /// discipline as submit().
  std::future<GraphOutcome> submit_graph(const GraphDesc& g);

  PlanCache& plan_cache() { return cache_; }
  const PlanCache& plan_cache() const { return cache_; }
  RuntimeStats stats() const;
  const ContextConfig& config() const { return cfg_; }
  unsigned workers() const { return pool_->size(); }

  /// Set the host.runtime.* gauges (and the cache's host.plan.*) from the
  /// current counters. Called automatically at the end of every run() and
  /// every completed submit(). The caller must hold the session's lock or
  /// otherwise have exclusive access to it; publishes into different
  /// sessions must not overlap (the metric handles are cached per session).
  void publish(telemetry::Session& tel) const;

 private:
  /// `pinned` (optional) bypasses the cache probe when its key matches the
  /// descriptor's; on mismatch the normal lookup runs.
  Outcome execute(const OpDesc& desc, telemetry::Session* tel,
                  telemetry::TraceContext* tc = nullptr,
                  const Plan* pinned = nullptr);
  Outcome run_impl(const OpDesc& desc, const Plan* pinned);
  std::future<Outcome> submit_impl(const OpDesc& desc,
                                   std::shared_ptr<const Plan> pinned);
  /// The worker-side body of an asynchronous op: stats, trace context,
  /// shard telemetry, execute, merge. Shared by submit() and the run_batch
  /// same-plan fast path.
  Outcome async_op(const OpDesc& desc, const Plan* pinned,
                   telemetry::Session* tel, bool trace_on, u64 op_id,
                   u64 submit_ns);
  Outcome run_engine(const Plan& plan, const OpDesc& desc,
                     telemetry::Session* tel);
  GraphOutcome execute_graph(const GraphDesc& g, telemetry::Session* tel,
                             telemetry::TraceContext* tc = nullptr);
  void observe_latency(telemetry::Session& tel,
                       const telemetry::TraceContext& tc) const;

  ContextConfig cfg_;
  ThreadPool* pool_;
  PlanCache cache_;
  /// publish()'s gauges and observe_latency()'s histograms, resolved once per
  /// session epoch; used under the session lock.
  mutable telemetry::MetricList gauges_;
  mutable telemetry::MetricList latency_;
  std::atomic<u64> submitted_{0};
  std::atomic<u64> completed_{0};
  std::atomic<u64> failed_{0};
  std::atomic<u64> queued_{0};
  std::atomic<u64> in_flight_{0};
};

}  // namespace xd::host
