#include "host/runtime.hpp"

#include <chrono>

#include "blas2/blocking.hpp"
#include "telemetry/session.hpp"

namespace xd::host {

namespace {

/// Patch the execution session into a copy of the planned engine config.
template <typename Cfg>
Cfg with_telemetry(const Cfg& planned, telemetry::Session* tel) {
  Cfg cfg = planned;
  cfg.telemetry = tel;
  return cfg;
}

/// The same copy, also handed the plan's schedule slot (dot, tree GEMV).
template <typename Cfg>
Cfg with_schedule(const Cfg& planned, telemetry::Session* tel,
                  const Plan& plan) {
  Cfg cfg = with_telemetry(planned, tel);
  cfg.schedule = plan.schedule.get();
  return cfg;
}

/// The engines' native outcomes -> the unified Outcome: the payload and the
/// report. Engine-specific extras stay behind; run_engine stamps the kind.
Outcome to_outcome(blas1::DotOutcome&& o) {
  return {OpKind::Dot, std::move(o.results), std::move(o.report)};
}
Outcome to_outcome(blas2::MxvOutcome&& o) {
  return {OpKind::Gemv, std::move(o.y), std::move(o.report)};
}
Outcome to_outcome(blas3::MmOutcome&& o) {
  return {OpKind::GemmArray, std::move(o.c), std::move(o.report)};
}
Outcome to_outcome(blas3::MmHierOutcome&& o) {
  return {OpKind::Gemm, std::move(o.c), std::move(o.report)};
}
Outcome to_outcome(blas3::MmMultiOutcome&& o) {
  return {OpKind::GemmMulti, std::move(o.c), std::move(o.report)};
}

/// Monotonic wall-clock nanoseconds for TraceContext lifecycle stamps.
u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Process-wide op sequence: op ids stay unique and submission-ordered even
/// across Runtime instances (the CLI builds one Runtime per batch line, yet
/// their flight records must interleave coherently).
std::atomic<u64> g_op_seq{0};

/// First line of a failed op's exception message, for compact
/// flight-recorder records (empty for a non-std::exception).
std::string error_line(const std::exception_ptr& err) {
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    const std::string what = e.what();
    return what.substr(0, what.find('\n'));
  } catch (...) {
    return {};
  }
}

/// This thread's shard session, cleared for its next op: a pooled op records
/// into it without a lock, then merges it into the shared session. One per
/// worker, reused by ops and graphs alike; its small trace ring only matters
/// when the shared session traces.
telemetry::Session& worker_shard(bool trace_on) {
  static thread_local telemetry::Session shard(/*trace_capacity=*/512,
                                               /*flight_capacity=*/1);
  shard.reset_for_reuse();
  shard.trace().set_enabled(trace_on);
  return shard;
}

}  // namespace

/// Everything a submitted op carries from the caller to the worker. Carved
/// from a recycled slab so the steady-state submit path allocates only the
/// packaged task's shared state: the submission lambda captures two
/// pointers and fits MoveFunc's inline storage.
struct Runtime::OpState {
  OpDesc desc;
  std::shared_ptr<const Plan> pinned;  ///< null unless submitted via handle
  Ticket ticket;
};

/// Per-worker slab of recycled OpStates with a mutex-guarded global
/// spillover. Acquire prefers the calling thread's local free list; a
/// worker releases into its own list and overflows into the global one,
/// which is where a dedicated submitter thread (serve daemon, benchmarks)
/// refills from — states circulate instead of being reallocated per op.
class Runtime::OpSlab {
 public:
  /// Returns the op state to the slab on every exit path of a worker lambda.
  struct Return {
    OpState* st;
    ~Return() { release(st); }
  };

  static OpState* acquire() {
    auto& loc = local().states;
    if (!loc.empty()) {
      OpState* s = loc.back();
      loc.pop_back();
      return s;
    }
    {
      Global& g = global();
      std::lock_guard<std::mutex> lock(g.mu);
      if (!g.states.empty()) {
        OpState* s = g.states.back();
        g.states.pop_back();
        return s;
      }
    }
    return new OpState();
  }

  static void release(OpState* s) {
    // Drop the operand views and the plan reference now: the caller's
    // vectors (and a pinned plan's cache slot) must not be kept reachable
    // by an idle slab entry.
    s->desc = OpDesc{};
    s->pinned.reset();
    auto& loc = local().states;
    if (loc.size() < kLocalCap) {
      loc.push_back(s);
      return;
    }
    Global& g = global();
    std::lock_guard<std::mutex> lock(g.mu);
    if (g.states.size() < kGlobalCap) {
      g.states.push_back(s);
      return;
    }
    delete s;
  }

 private:
  static constexpr std::size_t kLocalCap = 32;
  static constexpr std::size_t kGlobalCap = 1024;
  struct Local {
    std::vector<OpState*> states;
    ~Local() {
      for (OpState* s : states) delete s;
    }
  };
  /// The spillover list, freed at exit like the per-thread lists (a leak
  /// checker would otherwise report every spilled state).
  struct Global {
    std::mutex mu;
    std::vector<OpState*> states;
    ~Global() {
      for (OpState* s : states) delete s;
    }
  };
  static Local& local() {
    static thread_local Local l;
    return l;
  }
  static Global& global() {
    static Global g;
    return g;
  }
};

Runtime::Runtime(const ContextConfig& cfg, ThreadPool* pool)
    : cfg_(cfg),
      pool_(pool ? pool : &ThreadPool::shared()),
      cache_(cfg.plan_cache_capacity),
      gauges_(telemetry::MetricKind::Gauge,
              {"host.runtime.submitted", "host.runtime.completed",
               "host.runtime.failed", "host.runtime.workers",
               "host.runtime.queue_depth", "host.runtime.in_flight",
               "fp.backend.native", "fp.backend.fell_back",
               "fp.backend.conformance_cases"}),
      latency_(telemetry::MetricKind::Histogram,
               {"host.runtime.queue_wait", "host.runtime.exec",
                "host.runtime.e2e"}) {}

Outcome Runtime::execute(const OpDesc& desc, telemetry::Session* tel,
                         telemetry::TraceContext* tc, const Plan* pinned) {
  desc.validate();
  // A pinned plan short-circuits the cache probe, but only when it matches
  // the descriptor's key exactly — a ScopedBackend override or a handle
  // reused across shapes falls back to the normal lookup, so a pinned
  // execution is always bit-identical to an LRU-path one.
  const PlanKey key = PlanKey::from(desc, cfg_.tune);
  std::shared_ptr<const Plan> resolved;
  const Plan* plan = pinned;
  if (!plan || !(plan->key == key)) {
    resolved = cache_.get_or_build(cfg_, key);
    plan = resolved.get();
  }
  if (tc) tc->plan_ns = now_ns();

  // Staging happens (and is recorded) before the engine runs, so the
  // "staging" span precedes the engine's "compute" span on the timeline.
  if (plan->staging_cycles > 0 && tel) {
    tel->phase("staging", plan->staging_cycles);
    tel->gauge(cat("mem.dram.", op_kind_name(desc.kind), ".words"))
        .set(plan->dram_words);
  }

  if (tc) tc->exec_ns = now_ns();
  Outcome out = run_engine(*plan, desc, tel);

  if (plan->staging_cycles > 0) {
    out.report.staging_cycles = plan->staging_cycles;
    out.report.cycles += plan->staging_cycles;
    out.report.dram_words = plan->dram_words;
  }
  if (tc) tc->cycles = out.report.cycles;
  return out;
}

Outcome Runtime::run_engine(const Plan& plan, const OpDesc& desc,
                            telemetry::Session* tel) {
  Outcome out;
  switch (desc.kind) {
    case OpKind::Dot: {
      blas1::DotEngine engine(
          with_schedule(std::get<blas1::DotConfig>(plan.engine), tel, plan));
      // Single-pair overload: no per-op batch-vector wrap (two vector
      // copies per tiny op on the old path).
      out = to_outcome(engine.run_pair(*desc.a, *desc.b));
      break;
    }
    case OpKind::DotBatch: {
      blas1::DotEngine engine(
          with_schedule(std::get<blas1::DotConfig>(plan.engine), tel, plan));
      out = to_outcome(engine.run(*desc.us, *desc.vs));
      break;
    }
    case OpKind::Gemv: {
      // Dispatch on what the plan resolved to, not on desc.arch: the tuner
      // may cross architectures (a tree descriptor can plan onto the
      // column design and vice versa).
      if (std::holds_alternative<blas2::MxvTreeConfig>(plan.engine)) {
        blas2::MxvTreeEngine engine(
            with_schedule(std::get<blas2::MxvTreeConfig>(plan.engine), tel,
                          plan));
        out = to_outcome(engine.run(*desc.a, desc.rows, desc.cols, *desc.x));
      } else {
        blas2::MxvColEngine engine(
            with_telemetry(std::get<blas2::MxvColConfig>(plan.engine), tel));
        out = to_outcome(engine.run(*desc.a, desc.rows, desc.cols, *desc.x));
      }
      break;
    }
    case OpKind::GemvAuto: {
      // Blocked plans carry no schedule slot: blocked GEMV simulates.
      const auto tc =
          with_schedule(std::get<blas2::MxvTreeConfig>(plan.engine), tel, plan);
      if (!plan.blocked_gemv) {
        blas2::MxvTreeEngine engine(tc);
        out = to_outcome(engine.run(*desc.a, desc.rows, desc.cols, *desc.x));
      } else {
        out = to_outcome(
            blas2::run_blocked_gemv_tree(tc, plan.onchip_capacity, *desc.a,
                                         desc.rows, desc.cols, *desc.x));
      }
      break;
    }
    case OpKind::Spmxv: {
      blas2::SpmxvEngine engine(
          with_telemetry(std::get<blas2::SpmxvConfig>(plan.engine), tel));
      out = to_outcome(engine.run(*desc.sparse, *desc.x));
      break;
    }
    case OpKind::Gemm:
    case OpKind::GemmArray:
    case OpKind::GemmMulti: {
      // Same cross-family dispatch: a tuned Gemm plan can resolve to the
      // cycle-accurate array or the multi-FPGA pipeline instead of the
      // hierarchical model.
      if (std::holds_alternative<blas3::MmArrayConfig>(plan.engine)) {
        blas3::MmArrayEngine engine(
            with_telemetry(std::get<blas3::MmArrayConfig>(plan.engine), tel));
        out = to_outcome(engine.run(*desc.a, *desc.b, desc.n));
      } else if (std::holds_alternative<blas3::MmMultiConfig>(plan.engine)) {
        blas3::MmMultiEngine engine(
            with_telemetry(std::get<blas3::MmMultiConfig>(plan.engine), tel));
        out = to_outcome(engine.run(*desc.a, *desc.b, desc.n));
      } else {
        blas3::MmHierEngine engine(
            with_telemetry(std::get<blas3::MmHierConfig>(plan.engine), tel));
        // rows != 0 marks the shard scheduler's row-panel form (validate()
        // guarantees it only reaches the hierarchical engine).
        out = desc.rows != 0
                  ? to_outcome(engine.run_panel(*desc.a, desc.rows, *desc.b,
                                                desc.n))
                  : to_outcome(engine.run(*desc.a, *desc.b, desc.n));
      }
      break;
    }
  }
  // The adapters stamp their engine's usual kind; keep the caller's.
  out.kind = desc.kind;
  return out;
}

GraphOutcome Runtime::execute_graph(const GraphDesc& g,
                                    telemetry::Session* tel,
                                    telemetry::TraceContext* tc) {
  g.validate();
  const auto plan = cache_.get_or_build_graph(cfg_, g);
  if (tc) tc->plan_ns = tc->exec_ns = now_ns();

  GraphOutcome go;
  go.nodes.resize(g.nodes.size());

  // Nodes run in the planned topological order; an edge-fed operand slot is
  // patched to the producer's already-computed value vector. Within a fused
  // chain that models SRAM forwarding; across chains it models the DRAM
  // round trip — either way the values are identical, only the staging
  // cycle accounting differs (the bit-identity invariant the fuzz harness
  // holds fused execution to).
  for (const std::size_t idx : plan->order) {
    OpDesc d = g.nodes[idx].desc;
    for (const auto& e : g.edges) {
      if (e.to == idx) slot_pointer(d, e.slot) = &go.nodes[e.from].values;
    }
    d.validate();

    const NodeStaging& st = plan->staging[idx];
    if (st.fused_cycles > 0 && tel) {
      tel->phase("staging", st.fused_cycles);
      tel->gauge(cat("mem.dram.", op_kind_name(d.kind), ".words"))
          .set(st.fused_words);
    }
    Outcome out = run_engine(*plan->node_plans[idx], d, tel);
    if (st.fused_cycles > 0 || st.unfused_cycles > 0) {
      out.report.staging_cycles = st.fused_cycles;
      out.report.cycles += st.fused_cycles;
      out.report.dram_words = st.fused_words;
    }
    go.nodes[idx] = std::move(out);
  }

  // Aggregate report, normalized into node 0's clock domain the same way
  // solver::cg absorbs dot-clock cycles into the GEMV clock.
  const double ref_clock = go.nodes[0].report.clock_mhz;
  const auto normalize = [&](u64 cycles, double clock) -> u64 {
    if (clock <= 0.0 || ref_clock <= 0.0 || clock == ref_clock) return cycles;
    return static_cast<u64>(static_cast<double>(cycles) * ref_clock / clock);
  };
  go.report.design = cat("graph[", g.nodes.size(), " nodes]");
  go.report.clock_mhz = ref_clock;
  go.node_staging_saved.resize(go.nodes.size());
  for (std::size_t i = 0; i < go.nodes.size(); ++i) {
    const PerfReport& r = go.nodes[i].report;
    go.report.cycles += normalize(r.cycles, r.clock_mhz);
    go.report.compute_cycles += normalize(r.compute_cycles, r.clock_mhz);
    go.report.staging_cycles += normalize(r.staging_cycles, r.clock_mhz);
    go.report.stall_cycles += normalize(r.stall_cycles, r.clock_mhz);
    go.report.flops += r.flops;
    go.report.sram_words += r.sram_words;
    go.report.dram_words += r.dram_words;
    const NodeStaging& st = plan->staging[i];
    go.node_staging_saved[i] = st.unfused_cycles - st.fused_cycles;
    go.staging_saved_cycles +=
        normalize(st.unfused_cycles - st.fused_cycles, r.clock_mhz);
    go.staging_saved_words += st.unfused_words - st.fused_words;
  }
  go.fused_edges = plan->fused_edges;
  go.shared_operands = plan->shared_operands;
  if (tc) tc->cycles = go.report.cycles;
  return go;
}

void Runtime::observe_latency(telemetry::Session& tel,
                              const telemetry::TraceContext& tc) const {
  // Histograms are in microseconds: the sketch's log-linear buckets resolve
  // sub-microsecond detail poorly anyway, and us keeps exports readable.
  constexpr double kUs = 1e-3;
  const double samples[] = {
      static_cast<double>(tc.queue_wait_ns()) * kUs,
      static_cast<double>(tc.complete_ns - tc.exec_ns) * kUs,
      static_cast<double>(tc.e2e_ns()) * kUs,
  };
  telemetry::Metric* const* h = latency_.bind(tel.metrics());
  for (std::size_t i = 0; i < std::size(samples); ++i) {
    telemetry::HistogramMetric(*h[i]).observe(samples[i]);
  }
}

Runtime::Ticket Runtime::ticket(u64 ops) const {
  Ticket t;
  t.tel = cfg_.telemetry;
  if (t.tel) {
    t.trace_on = t.tel->trace().enabled();
    t.op_id = g_op_seq.fetch_add(ops, std::memory_order_relaxed);
    t.submit_ns = now_ns();
  }
  return t;
}

template <typename Body>
auto Runtime::tracked(const char* kind, const Ticket& t, bool pooled,
                      Body&& body) {
  if (pooled) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
  const auto settle = [&](std::atomic<u64>& end) {
    end.fetch_add(1, std::memory_order_relaxed);
    if (pooled) in_flight_.fetch_sub(1, std::memory_order_relaxed);
  };
  if (!t.tel) {
    // No session: nothing to record, so no clock reads either.
    try {
      auto out = body(nullptr, nullptr);
      settle(completed_);
      return out;
    } catch (...) {
      settle(failed_);
      throw;
    }
  }

  telemetry::TraceContext tc;
  tc.op_id = t.op_id;
  tc.kind = kind;
  const int worker = pooled ? ThreadPool::current_worker_id() : -1;
  tc.lane = worker < 0 ? 0 : static_cast<unsigned>(worker) + 1;
  tc.submit_ns = t.submit_ns;
  tc.dequeue_ns = pooled ? now_ns() : t.submit_ns;

  // A synchronous op records straight into the session and holds its lock
  // for the whole op, so its telemetry is bit-identical to single-threaded
  // recording even while workers merge shards (engines only parallel_for
  // with caller participation, so no pool task is awaited under the lock).
  // A pooled op records into its worker's shard and merges at completion.
  std::unique_lock<std::mutex> lock;
  telemetry::Session* rec = t.tel;
  if (pooled) {
    rec = &worker_shard(t.trace_on);
  } else {
    lock = t.tel->lock();
  }
  decltype(body(rec, &tc)) out;
  std::exception_ptr err;
  try {
    out = body(rec, &tc);
  } catch (...) {
    err = std::current_exception();
    tc.failed = true;
    tc.error = error_line(err);
  }
  tc.complete_ns = now_ns();
  settle(err ? failed_ : completed_);

  if (!lock) lock = t.tel->lock();
  // A failed op's shard may hold open spans and partial metrics: it is
  // discarded (cleared at the worker's next op), never merged.
  if (!err) {
    if (pooled) t.tel->merge_unlocked(*rec, tc.lane);
    observe_latency(*t.tel, tc);
  }
  publish(*t.tel);
  t.tel->flight().record(tc);
  lock.unlock();
  if (err) std::rethrow_exception(err);
  return out;
}

Outcome Runtime::run_op(const OpDesc& desc, const Plan* pinned,
                        const Ticket& t, bool pooled) {
  return tracked(op_kind_name(desc.kind), t, pooled,
                 [&](telemetry::Session* tel, telemetry::TraceContext* tc) {
                   return execute(desc, tel, tc, pinned);
                 });
}

Outcome Runtime::run(const OpDesc& desc) {
  return run_op(desc, nullptr, ticket(), /*pooled=*/false);
}

Outcome Runtime::run(const OpDesc& desc, const PlanHandle& plan) {
  return run_op(desc, plan.plan_.get(), ticket(), /*pooled=*/false);
}

PlanHandle Runtime::pin_plan(const OpDesc& desc) {
  desc.validate();
  return PlanHandle(cache_.pin(cfg_, PlanKey::from(desc, cfg_.tune)));
}

std::future<Outcome> Runtime::submit(const OpDesc& desc) {
  return submit_impl(desc, nullptr);
}

std::future<Outcome> Runtime::submit(const OpDesc& desc,
                                     const PlanHandle& plan) {
  return submit_impl(desc, plan.plan_);
}

std::future<Outcome> Runtime::submit_impl(const OpDesc& desc,
                                          std::shared_ptr<const Plan> pinned) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);

  // Everything the worker needs travels in a recycled slab state; the
  // lambda captures two pointers, so the whole task fits the pool's
  // single-allocation packaged task.
  OpState* st = OpSlab::acquire();
  st->desc = desc;
  st->pinned = std::move(pinned);
  st->ticket = ticket();

  return pool_->submit([this, st]() -> Outcome {
    OpSlab::Return ret{st};
    return run_op(st->desc, st->pinned.get(), st->ticket, /*pooled=*/true);
  });
}

std::vector<Outcome> Runtime::run_batch(const std::vector<OpDesc>& descs) {
  if (descs.empty()) return {};

  // Same-shape fast path: a run of consecutive descriptors with one
  // PlanKey is staged as a single pooled job that resolves the plan once
  // and executes the ops back to back. Each op keeps its own Outcome,
  // telemetry shard merge, trace context and flight-recorder entry, so the
  // results are indistinguishable from per-op submission. Runs are capped
  // so one huge uniform batch still spreads across workers.
  constexpr std::size_t kGroupCap = 64;
  struct Slice {
    std::vector<Outcome> outs;
    std::vector<std::exception_ptr> errs;  ///< parallel to outs; null = ok
  };
  std::vector<std::future<Slice>> futures;
  std::size_t i = 0;
  while (i < descs.size()) {
    const PlanKey key = PlanKey::from(descs[i], cfg_.tune);
    std::size_t j = i + 1;
    while (j < descs.size() && j - i < kGroupCap &&
           PlanKey::from(descs[j], cfg_.tune) == key) {
      ++j;
    }
    const std::size_t n = j - i;
    submitted_.fetch_add(n, std::memory_order_relaxed);
    queued_.fetch_add(n, std::memory_order_relaxed);
    const Ticket group = ticket(n);  // op ids group.op_id .. + n - 1
    const OpDesc* first = descs.data() + i;
    futures.push_back(pool_->submit([this, first, n, key, group]() -> Slice {
      Slice s;
      s.outs.resize(n);
      s.errs.assign(n, nullptr);
      // One plan resolution for the whole run. If the build fails (or a
      // backend override invalidates the key), each op falls back to its
      // own probe inside execute(), surfacing per-op exceptions exactly
      // as per-op submission would.
      std::shared_ptr<const Plan> plan;
      try {
        plan = cache_.get_or_build(cfg_, key);
      } catch (...) {
        plan = nullptr;
      }
      for (std::size_t t = 0; t < n; ++t) {
        Ticket op = group;
        op.op_id += t;
        try {
          s.outs[t] = run_op(first[t], plan.get(), op, /*pooled=*/true);
        } catch (...) {
          s.errs[t] = std::current_exception();
        }
      }
      return s;
    }));
    i = j;
  }

  // Settle every job before surfacing the first failure, so no future is
  // abandoned with its operands possibly going out of scope at the caller.
  std::vector<Outcome> outs;
  outs.reserve(descs.size());
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      Slice s = f.get();
      for (std::size_t t = 0; t < s.outs.size(); ++t) {
        if (s.errs[t]) {
          if (!first_error) first_error = s.errs[t];
        } else {
          outs.push_back(std::move(s.outs[t]));
        }
      }
    } catch (...) {
      // A group job itself never throws, but a dying pool can drop it.
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return outs;
}

GraphOutcome Runtime::run_graph(const GraphDesc& g) {
  return tracked("graph", ticket(), /*pooled=*/false,
                 [&](telemetry::Session* tel, telemetry::TraceContext* tc) {
                   return execute_graph(g, tel, tc);
                 });
}

std::future<GraphOutcome> Runtime::submit_graph(const GraphDesc& g) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  queued_.fetch_add(1, std::memory_order_relaxed);
  return pool_->submit([this, g, t = ticket()]() -> GraphOutcome {
    return tracked("graph", t, /*pooled=*/true,
                   [&](telemetry::Session* tel, telemetry::TraceContext* tc) {
                     return execute_graph(g, tel, tc);
                   });
  });
}

RuntimeStats Runtime::stats() const {
  RuntimeStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.queued = queued_.load(std::memory_order_relaxed);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

void Runtime::publish(telemetry::Session& tel) const {
  const RuntimeStats s = stats();
  // Which arithmetic backend runs the engines, and the evidence behind the
  // choice: 'native' reflects the live dispatch table (including ScopedBackend
  // overrides), the other two describe the process-wide startup selection.
  const fp::BackendSelection& sel = fp::backend_selection();
  const double values[] = {
      static_cast<double>(s.submitted),
      static_cast<double>(s.completed),
      static_cast<double>(s.failed),
      static_cast<double>(workers()),
      static_cast<double>(s.queued),
      static_cast<double>(s.in_flight),
      fp::active_backend().kind == fp::BackendKind::Native ? 1.0 : 0.0,
      sel.fell_back ? 1.0 : 0.0,
      static_cast<double>(sel.conformance.cases),
  };
  gauges_.set_gauges(tel.metrics(), values);
  cache_.publish(tel);
}

}  // namespace xd::host
