// Runtime layer: the one way to run an op. An OpDesc goes in, an Outcome
// (values + PerfReport) comes out.
//
// A Runtime binds one machine configuration to the process-wide ThreadPool
// and a PlanCache. Operations arrive as OpDescs (or GraphDescs) and leave as
// Outcomes (GraphOutcomes):
//
//   host::Runtime rt(cfg);
//   Outcome y = rt.run(OpDesc::gemv(a, n, n, x));     // sync, this thread
//   auto fut = rt.submit(OpDesc::gemv(a, n, n, x));   // async, pooled
//   Outcome out = fut.get();                          // value or exception
//
// run() and run_graph() execute on the calling thread; submit(),
// run_batch() and submit_graph() on the worker pool; run_parallel() on the
// pool and the calling thread together. Engine simulations are
// deterministic and self-contained, so N concurrent submits produce
// bit-identical values and cycle counts to N sequential runs —
// tests/test_runtime.cpp holds this invariant.
//
// Every entry point runs each op or graph through one lifecycle, pinned by
// the OpLifecycle table in tests/test_runtime.cpp:
//   - stats() counts a pooled op as submitted and queued at entry, in
//     flight once a worker picks it up, then completed or failed; a
//     synchronous op only completes or fails. With no telemetry session
//     that is all: no clock read, no allocation.
//   - With a session, the op stamps a telemetry::TraceContext (process-wide
//     op id, submit/dequeue/plan/exec/complete wall-clock edges). A
//     synchronous op records straight into the session under its lock, on
//     lane 0 with dequeue == submit. A pooled op records into its worker's
//     thread-local shard session, which merges under the lock on lane
//     worker-id + 1 (lane 0 for a run_parallel() op the caller claimed).
//   - At the end, under the session lock, a completed op's queue-wait /
//     exec / end-to-end latencies feed the host.runtime.* histograms. Every
//     op, failed or not, republishes the host.runtime.* and host.plan.*
//     gauges and files its TraceContext in the session's flight recorder. A
//     failed op's record carries failed = true and the first line of its
//     error; its shard is discarded, never merged.
//
// Runtime is thread-safe (the plan cache is mutex-guarded, the stats are
// atomic), and so is telemetry on a shared session. Recording never perturbs
// outcomes: telemetry is not part of the PlanKey and engines compute
// identically with or without it (the fuzz harness's telemetry-neutrality
// invariant covers both run() and submit()).
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

  /// Execute on the calling thread.
  Outcome run(const OpDesc& desc);

  /// Execute on the worker pool; the future carries the Outcome or the
  /// exception (ConfigError and friends) the job raised.
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

  /// Execute every descriptor concurrently, the calling thread claiming ops
  /// alongside this runtime's pool workers (parallel_for, one op per
  /// index): no op waits for a worker to wake, a single op runs on the
  /// caller, and the call finishes even with every worker busy. Each op is
  /// a pooled op for stats() and telemetry, recorded into the shard of the
  /// thread that runs it (lane 0 on the caller). Throws the lowest-index
  /// failure once every op has settled. Must not be called from inside an
  /// op (its thread's shard would be in use).
  std::vector<Outcome> run_parallel(const std::vector<OpDesc>& descs);

  /// Execute an op DAG on the calling thread: plan the chain partition
  /// (cached by graph signature), then run the nodes in topological order
  /// with producer results forwarded into edge-fed operand slots and the
  /// fused staging budgets from the GraphPlan in place of the per-op ones.
  /// Node outcomes are bit-identical to per-op execution — fusion changes
  /// staging cycle accounting, never values or compute cycles.
  GraphOutcome run_graph(const GraphDesc& g);

  /// run_graph on the worker pool; one job executes the whole graph (fused
  /// chains are sequential by construction).
  std::future<GraphOutcome> submit_graph(const GraphDesc& g);

  PlanCache& plan_cache() { return cache_; }
  const PlanCache& plan_cache() const { return cache_; }
  RuntimeStats stats() const;
  const ContextConfig& config() const { return cfg_; }
  unsigned workers() const { return pool_->size(); }

  /// Set the host.runtime.* gauges (and the cache's host.plan.*) from the
  /// current counters. Called automatically at the end of every op, failed
  /// ones included. The caller must hold the session's lock or
  /// otherwise have exclusive access to it; publishes into different
  /// sessions must not overlap (the metric handles are cached per session).
  void publish(telemetry::Session& tel) const;

  /// The engine dispatch every execution path shares: run the engine `plan`
  /// resolved to on `desc`'s operands, recording into `tel` (may be null).
  /// Adds no staging. The tuner's probes run through it on plans with no
  /// schedule slot.
  static Outcome run_engine(const Plan& plan, const OpDesc& desc,
                            telemetry::Session* tel);

 private:
  /// `pinned` (optional) bypasses the cache probe when its key matches the
  /// descriptor's; on mismatch the normal lookup runs.
  Outcome execute(const OpDesc& desc, telemetry::Session* tel,
                  telemetry::TraceContext* tc, const Plan* pinned);
  std::future<Outcome> submit_impl(const OpDesc& desc,
                                   std::shared_ptr<const Plan> pinned);

  /// Where an op entered the runtime: the session it records into and, with
  /// one attached, whether it traced, the op id and the submit time. With no
  /// session every other field stays zero: the detached path reads no clock.
  struct Ticket {
    telemetry::Session* tel = nullptr;
    bool trace_on = false;
    u64 op_id = 0;
    u64 submit_ns = 0;
  };
  struct OpState;  ///< a submitted op's descriptor, plan and ticket
  class OpSlab;    ///< recycles OpStates across submits

  /// Stamp the entry of `ops` ops, reserving the ids op_id .. op_id+ops-1.
  Ticket ticket(u64 ops = 1) const;
  /// The op lifecycle described at the top of this file, around
  /// `body(session, tc)` (execute or execute_graph). `pooled` marks the
  /// worker side of submit, run_batch and submit_graph, and every
  /// run_parallel op.
  template <typename Body>
  auto tracked(const char* kind, const Ticket& t, bool pooled, Body&& body);
  Outcome run_op(const OpDesc& desc, const Plan* pinned, const Ticket& t,
                 bool pooled);
  GraphOutcome execute_graph(const GraphDesc& g, telemetry::Session* tel,
                             telemetry::TraceContext* tc);
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
