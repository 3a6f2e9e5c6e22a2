// Runtime-layer tests: concurrent submits are bit-identical to sequential
// runs (values AND cycle counts — the simulations are deterministic and
// self-contained), the plan cache counts hits/misses and evicts LRU-first,
// errors propagate through futures, the pool-backed parallel_for is
// correct and deadlock-free even when nested inside a pool job, and every
// entry point's op lifecycle (stats, flight record, spans, gauges) is pinned
// in one table.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "blas1/dot_engine.hpp"
#include "blas2/mxv_tree.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/runtime.hpp"
#include "sim/schedule.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/session.hpp"

using namespace xd;
using host::Context;
using host::ContextConfig;
using host::OpDesc;
using host::Outcome;
using host::Placement;
using host::Runtime;

namespace {

struct GemvJob {
  std::vector<double> a;
  std::vector<double> x;
  std::size_t n;
};

std::vector<GemvJob> make_gemv_jobs(std::size_t count, std::size_t n) {
  std::vector<GemvJob> jobs;
  for (std::size_t j = 0; j < count; ++j) {
    Rng rng(100 + j);  // distinct data per job
    jobs.push_back({rng.matrix(n, n), rng.vector(n), n});
  }
  return jobs;
}

}  // namespace

TEST(Runtime, ConcurrentSubmitsBitIdenticalToSequential) {
  const auto jobs = make_gemv_jobs(8, 96);

  // Sequential reference: one op at a time on the calling thread.
  Runtime seq({});
  std::vector<Outcome> expect;
  for (const auto& j : jobs) {
    expect.push_back(seq.run(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }

  // Concurrent: all eight in flight on the shared pool at once.
  Runtime rt({});
  std::vector<std::future<Outcome>> futs;
  for (const auto& j : jobs) {
    futs.push_back(rt.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Outcome got = futs[j].get();
    ASSERT_EQ(got.values.size(), expect[j].values.size());
    for (std::size_t i = 0; i < got.values.size(); ++i) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(got.values[i], expect[j].values[i]) << "job " << j << " y[" << i
                                                    << "]";
    }
    EXPECT_EQ(got.report.cycles, expect[j].report.cycles) << "job " << j;
    EXPECT_EQ(got.report.flops, expect[j].report.flops) << "job " << j;
    EXPECT_EQ(got.report.stall_cycles, expect[j].report.stall_cycles)
        << "job " << j;
  }

  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed, 8u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Runtime, RunBatchPreservesOrderAndMatchesRun) {
  Rng rng(5);
  const auto u = rng.vector(64);
  const auto v = rng.vector(64);
  const auto w = rng.vector(64);

  Runtime rt({});
  const auto outs =
      rt.run_batch({OpDesc::dot(u, v), OpDesc::dot(u, w), OpDesc::dot(v, w)});
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0].values.at(0), rt.run(OpDesc::dot(u, v)).values.at(0));
  EXPECT_EQ(outs[1].values.at(0), rt.run(OpDesc::dot(u, w)).values.at(0));
  EXPECT_EQ(outs[2].values.at(0), rt.run(OpDesc::dot(v, w)).values.at(0));
}

TEST(Runtime, PlanCacheCountsHitsAndMisses) {
  Rng rng(6);
  const auto a = rng.matrix(64, 64);
  const auto x = rng.vector(64);

  Runtime rt({});
  const auto& cache = rt.plan_cache();
  EXPECT_EQ(cache.size(), 0u);

  rt.run(OpDesc::gemv(a, 64, 64, x));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.size(), 1u);

  rt.run(OpDesc::gemv(a, 64, 64, x));  // same key -> hit
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  rt.run(OpDesc::gemv(a, 64, 64, x, Placement::Dram));  // placement keys
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Runtime, PlanCacheEvictsLeastRecentlyUsed) {
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;
  Runtime rt(cfg);
  const auto& cache = rt.plan_cache();
  EXPECT_EQ(cache.capacity(), 2u);

  Rng rng(7);
  const auto a64 = rng.matrix(64, 64), x64 = rng.vector(64);
  const auto a96 = rng.matrix(96, 96), x96 = rng.vector(96);
  const auto a128 = rng.matrix(128, 128), x128 = rng.vector(128);

  rt.run(OpDesc::gemv(a64, 64, 64, x64));    // miss: {64}
  rt.run(OpDesc::gemv(a96, 96, 96, x96));    // miss: {96, 64}
  rt.run(OpDesc::gemv(a64, 64, 64, x64));    // hit:  {64, 96}
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);

  rt.run(OpDesc::gemv(a128, 128, 128, x128));  // miss, evicts LRU (96)
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);

  rt.run(OpDesc::gemv(a64, 64, 64, x64));  // still cached — 96 was evicted
  EXPECT_EQ(cache.hits(), 2u);
  rt.run(OpDesc::gemv(a96, 96, 96, x96));  // gone: miss again
  EXPECT_EQ(cache.misses(), 4u);
}

// Malformed descriptors — zero shapes, overflowing shape products,
// structurally broken sparse matrices — must surface as ConfigError through
// run() AND through submit() futures, never as a crash or an engine walk
// past the operands.
namespace {

void expect_config_error_both_paths(Runtime& rt, const OpDesc& desc) {
  EXPECT_THROW(rt.run(desc), ConfigError);
  auto fut = rt.submit(desc);
  EXPECT_THROW(fut.get(), ConfigError);
}

}  // namespace

TEST(Runtime, ZeroShapesAreConfigErrors) {
  Runtime rt({});
  const std::vector<double> empty;
  expect_config_error_both_paths(rt, OpDesc::dot(empty, empty));

  Rng rng(11);
  const auto x = rng.vector(8);
  const std::vector<double> no_rows;  // 0 x 8 matrix
  expect_config_error_both_paths(rt, OpDesc::gemv(no_rows, 0, 8, x));

  expect_config_error_both_paths(rt, OpDesc::gemm_array(empty, empty, 0));

  const auto stats = rt.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 6u);
}

TEST(Runtime, OverflowingShapeProductsAreConfigErrors) {
  Runtime rt({});
  const std::vector<double> empty;
  const std::vector<double> x2{1.0, 2.0};

  // rows * cols wraps size_t to 0 == a.size(): the naive equality check
  // would pass and the engine would walk 2^63 rows of nothing.
  OpDesc wide = OpDesc::gemv(empty, 0, 2, x2);
  wide.rows = std::size_t{1} << 63;
  expect_config_error_both_paths(rt, wide);

  // n * n wraps to 0 on 64-bit for n = 2^32.
  OpDesc huge = OpDesc::gemm(empty, empty, 0);
  huge.n = std::size_t{1} << 32;
  expect_config_error_both_paths(rt, huge);
}

TEST(Runtime, MismatchedSparseStructureIsConfigError) {
  Rng rng(12);
  blas2::CrsMatrix m;
  m.rows = 2;
  m.cols = 2;
  m.row_ptr = {0, 1, 2};
  m.col_idx = {0, 1};
  m.values = {1.0, 2.0};
  const auto x = rng.vector(2);

  Runtime rt({});
  EXPECT_NO_THROW(rt.run(OpDesc::spmxv(m, x)));  // honest matrix is fine

  m.col_idx[0] = 5;  // out-of-range column
  expect_config_error_both_paths(rt, OpDesc::spmxv(m, x));
  m.col_idx[0] = 0;

  m.row_ptr.pop_back();  // rows+1 invariant broken
  expect_config_error_both_paths(rt, OpDesc::spmxv(m, x));
  m.row_ptr = {0, 1, 2};

  // Descriptor shape diverging from the matrix (stale desc after resize).
  OpDesc stale = OpDesc::spmxv(m, x);
  stale.rows = 3;
  expect_config_error_both_paths(rt, stale);
}

TEST(Runtime, PlanCacheConcurrentDistinctShapes) {
  // Eviction racing lookup: capacity 2, four distinct shapes hammered from
  // every pool worker at once. Outcomes must stay bit-identical to the
  // sequential reference, the cache must respect its capacity, and every
  // lookup must be counted exactly once as a hit or a miss.
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;

  const std::size_t shapes[] = {16, 24, 32, 40};
  std::vector<GemvJob> work;
  for (std::size_t j = 0; j < 4; ++j) {
    Rng rng(200 + j);
    work.push_back({rng.matrix(shapes[j], shapes[j]), rng.vector(shapes[j]),
                    shapes[j]});
  }

  Runtime seq(cfg);
  std::vector<Outcome> expect;
  for (const auto& w : work) {
    expect.push_back(seq.run(OpDesc::gemv(w.a, w.n, w.n, w.x)));
  }

  Runtime rt(cfg);
  constexpr std::size_t kThreads = 8, kRounds = 5;
  std::vector<std::future<Outcome>> futs;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (const auto& w : work) {
        futs.push_back(rt.submit(OpDesc::gemv(w.a, w.n, w.n, w.x)));
      }
    }
  }

  for (std::size_t i = 0; i < futs.size(); ++i) {
    const Outcome got = futs[i].get();
    const Outcome& want = expect[i % work.size()];
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t v = 0; v < got.values.size(); ++v) {
      ASSERT_EQ(got.values[v], want.values[v]) << "job " << i;
    }
    ASSERT_EQ(got.report.cycles, want.report.cycles) << "job " << i;
  }

  const auto& cache = rt.plan_cache();
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kRounds * work.size());
  const auto stats = rt.stats();
  EXPECT_EQ(stats.completed, kThreads * kRounds * work.size());
  EXPECT_EQ(stats.failed, 0u);
}

TEST(Runtime, ConfigErrorPropagatesThroughFuture) {
  Rng rng(8);
  const auto a = rng.matrix(32, 32);
  const auto x_bad = rng.vector(16);  // wrong length for a 32-col A

  Runtime rt({});
  auto fut = rt.submit(OpDesc::gemv(a, 32, 32, x_bad));
  EXPECT_THROW(fut.get(), ConfigError);

  // Plan-level failure (no SRAM panel edge tiles n=6 with the default m=8)
  // takes the same path.
  const auto small_a = rng.matrix(6, 6);
  const auto small_b = rng.matrix(6, 6);
  auto fut2 = rt.submit(OpDesc::gemm(small_a, small_b, 6));
  EXPECT_THROW(fut2.get(), ConfigError);

  const auto stats = rt.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Runtime, FailedBatchStillSettlesEveryJob) {
  Rng rng(9);
  const auto u = rng.vector(32);
  const auto v = rng.vector(32);
  const auto bad = rng.vector(31);

  Runtime rt({});
  EXPECT_THROW(rt.run_batch({OpDesc::dot(u, v), OpDesc::dot(u, bad)}),
               ConfigError);
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed + stats.failed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

// ---- concurrent telemetry --------------------------------------------------
// Submitted jobs used to run with telemetry detached; they now record into
// thread-local shards merged into the shared session. These tests hold the
// new contract: full recording under concurrency, without perturbing
// outcomes.

TEST(RuntimeTelemetry, ConcurrentSubmitsRecordFullTelemetry) {
  const auto jobs = make_gemv_jobs(8, 96);

  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);

  // Detached reference for outcome bit-identity (telemetry-neutrality).
  Runtime detached({});

  std::vector<std::future<Outcome>> futs, futs_ref;
  for (const auto& j : jobs) {
    futs.push_back(rt.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
    futs_ref.push_back(detached.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }
  u64 total_cycles = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Outcome got = futs[j].get();
    const Outcome want = futs_ref[j].get();
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t i = 0; i < got.values.size(); ++i) {
      ASSERT_EQ(got.values[i], want.values[i]) << "job " << j;
    }
    ASSERT_EQ(got.report.cycles, want.report.cycles) << "job " << j;
    total_cycles += got.report.cycles;
  }

  // Engine metrics and spans from every job landed in the session.
  EXPECT_TRUE(tel.metrics().contains("fpu.issue"));
  EXPECT_EQ(tel.spans().total_cycles("compute"), total_cycles);

  // Latency attribution histograms carry one sample per op and export
  // percentiles.
  const telemetry::Metric* e2e = tel.metrics().find("host.runtime.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->dist.count(), jobs.size());
  EXPECT_GT(telemetry::MetricsRegistry::percentile(*e2e, 0.95), 0.0);
  const telemetry::Metric* qw = tel.metrics().find("host.runtime.queue_wait");
  ASSERT_NE(qw, nullptr);
  EXPECT_EQ(qw->dist.count(), jobs.size());

  // After all futures settled, the sampled gauges must read drained.
  EXPECT_DOUBLE_EQ(tel.metrics().find("host.runtime.queue_depth")->value, 0.0);
  EXPECT_DOUBLE_EQ(tel.metrics().find("host.runtime.in_flight")->value, 0.0);

  // Every op left a flight record, and the exports stay valid JSON.
  EXPECT_EQ(tel.flight().total(), jobs.size());
  EXPECT_EQ(tel.flight().errors(), 0u);
  EXPECT_TRUE(telemetry::json_validate(telemetry::flight_to_json(tel.flight())));
  EXPECT_TRUE(telemetry::json_validate(telemetry::metrics_to_json(tel.metrics())));
  EXPECT_TRUE(telemetry::json_validate(telemetry::chrome_trace_json(tel, 200.0)));
}

TEST(RuntimeTelemetry, ConcurrentCountersMatchSequentialRecording) {
  // Order-independent telemetry (counters, histogram counts, span totals)
  // must come out identical whether the ops ran sequentially through run()
  // or concurrently through submit().
  const auto jobs = make_gemv_jobs(6, 64);

  telemetry::Session seq_tel;
  ContextConfig seq_cfg;
  seq_cfg.telemetry = &seq_tel;
  Runtime seq(seq_cfg);
  for (const auto& j : jobs) seq.run(OpDesc::gemv(j.a, j.n, j.n, j.x));

  telemetry::Session con_tel;
  ContextConfig con_cfg;
  con_cfg.telemetry = &con_tel;
  Runtime con(con_cfg);
  std::vector<std::future<Outcome>> futs;
  for (const auto& j : jobs) {
    futs.push_back(con.submit(OpDesc::gemv(j.a, j.n, j.n, j.x)));
  }
  for (auto& f : futs) f.get();

  con_tel.metrics().for_each([&](const std::string& name,
                                 const telemetry::Metric& m) {
    if (name.rfind("host.runtime.", 0) == 0) return;  // wall-clock metrics
    const telemetry::Metric* s = seq_tel.metrics().find(name);
    ASSERT_NE(s, nullptr) << name;
    if (m.kind == telemetry::MetricKind::Counter) {
      EXPECT_EQ(m.count, s->count) << name;
    } else if (m.kind == telemetry::MetricKind::Histogram) {
      EXPECT_EQ(m.dist.count(), s->dist.count()) << name;
      EXPECT_EQ(m.dist.min(), s->dist.min()) << name;
      EXPECT_EQ(m.dist.max(), s->dist.max()) << name;
    }
  });
  EXPECT_EQ(con_tel.spans().total_cycles("compute"),
            seq_tel.spans().total_cycles("compute"));
  EXPECT_EQ(con_tel.spans().spans().size(), seq_tel.spans().spans().size());
}

TEST(RuntimeTelemetry, RunStampsTraceContextLifecycle) {
  Rng rng(21);
  const auto a = rng.matrix(48, 48);
  const auto x = rng.vector(48);

  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  const Outcome out = rt.run(OpDesc::gemv(a, 48, 48, x));

  const auto snap = tel.flight().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const telemetry::TraceContext& tc = snap.front();
  EXPECT_STREQ(tc.kind, "gemv");
  EXPECT_EQ(tc.lane, 0u);  // synchronous path records on the caller lane
  EXPECT_EQ(tc.dequeue_ns, tc.submit_ns);  // no queue wait on run()
  EXPECT_GE(tc.plan_ns, tc.submit_ns);
  EXPECT_GE(tc.exec_ns, tc.plan_ns);
  EXPECT_GE(tc.complete_ns, tc.exec_ns);
  EXPECT_EQ(tc.cycles, out.report.cycles);
  EXPECT_FALSE(tc.failed);
}

TEST(RuntimeTelemetry, FailuresLandInTheFlightRecorder) {
  Rng rng(22);
  const auto a = rng.matrix(32, 32);
  const auto x_bad = rng.vector(16);

  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);

  EXPECT_THROW(rt.run(OpDesc::gemv(a, 32, 32, x_bad)), ConfigError);
  auto fut = rt.submit(OpDesc::gemv(a, 32, 32, x_bad));
  EXPECT_THROW(fut.get(), ConfigError);

  EXPECT_EQ(tel.flight().total(), 2u);
  EXPECT_EQ(tel.flight().errors(), 2u);
  for (const auto& tc : tel.flight().snapshot()) {
    EXPECT_TRUE(tc.failed);
    EXPECT_FALSE(tc.error.empty());
    EXPECT_GT(tc.complete_ns, 0u);
  }
  // The failed shard was discarded, not merged: no spans recorded.
  EXPECT_TRUE(tel.spans().empty());
}

TEST(RuntimeTelemetry, FlightRingBoundsRetainedHistory) {
  Rng rng(23);
  const auto u = rng.vector(32);
  const auto v = rng.vector(32);

  telemetry::Session tel(/*trace_capacity=*/4096, /*flight_capacity=*/4);
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  for (int i = 0; i < 7; ++i) rt.run(OpDesc::dot(u, v));

  EXPECT_EQ(tel.flight().size(), 4u);
  EXPECT_EQ(tel.flight().total(), 7u);
  const auto snap = tel.flight().snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_GT(snap[i].op_id, snap[i - 1].op_id);  // oldest-first, in order
  }
}

TEST(Runtime, ContextFacadeSharesTheRuntime) {
  Rng rng(10);
  const auto u = rng.vector(128);
  const auto v = rng.vector(128);

  // A Context owns one Runtime: every runtime() call hands back the same
  // instance, so repeated ops share its plan cache.
  Context ctx;
  EXPECT_EQ(&ctx.runtime(), &ctx.runtime());
  const auto first = ctx.runtime().run(OpDesc::dot(u, v));
  const auto second = ctx.runtime().run(OpDesc::dot(u, v));
  EXPECT_EQ(first.values, second.values);
  EXPECT_EQ(first.report.cycles, second.report.cycles);
  EXPECT_GE(ctx.runtime().plan_cache().hits(), 1u);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " n=" << n;
    }
  }
}

TEST(ParallelFor, RespectsWorkerCountAndOffsets) {
  std::vector<int> out(100, 0);
  parallel_for(10, 60, [&](std::size_t i) { out[i] = static_cast<int>(i); },
               3);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(out[i], (i >= 10 && i < 60) ? static_cast<int>(i) : 0);
  }
}

TEST(ParallelFor, NestedInsidePoolJobDoesNotDeadlock) {
  // Saturate the pool with jobs that themselves call parallel_for: the
  // caller-participates design means each inner loop can always make
  // progress on its own thread even with every worker busy.
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t jobs = 2 * pool.size() + 2;
  std::vector<std::future<long>> futs;
  for (std::size_t j = 0; j < jobs; ++j) {
    futs.push_back(pool.submit([] {
      std::atomic<long> sum{0};
      parallel_for(0, 1000, [&](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
      return sum.load();
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), 999L * 1000L / 2);
}

// ---- small-op executor: pinned plans, slab state, batch fast path ----------

namespace {

/// Full bit-exact outcome equality: every value AND the timing report.
void expect_outcome_eq(const Outcome& got, const Outcome& want,
                       const std::string& what) {
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i], want.values[i]) << what << " values[" << i << "]";
  }
  EXPECT_EQ(got.report.cycles, want.report.cycles) << what;
  EXPECT_EQ(got.report.stall_cycles, want.report.stall_cycles) << what;
  EXPECT_EQ(got.report.flops, want.report.flops) << what;
}

}  // namespace

TEST(Runtime, PinnedPlanBitIdenticalToLruPath) {
  Rng rng(21);
  const auto u = rng.vector(48), v = rng.vector(48);
  const auto a = rng.matrix(24, 24);
  const auto x = rng.vector(24);

  Runtime rt({});
  const Outcome dref = rt.run(OpDesc::dot(u, v));
  const Outcome gref = rt.run(OpDesc::gemv(a, 24, 24, x));

  const host::PlanHandle hd = rt.pin_plan(OpDesc::dot(u, v));
  const host::PlanHandle hg = rt.pin_plan(OpDesc::gemv(a, 24, 24, x));
  ASSERT_TRUE(hd.valid());
  ASSERT_TRUE(hg.valid());

  expect_outcome_eq(rt.run(OpDesc::dot(u, v), hd), dref, "pinned dot run");
  expect_outcome_eq(rt.submit(OpDesc::dot(u, v), hd).get(), dref,
                    "pinned dot submit");
  expect_outcome_eq(rt.run(OpDesc::gemv(a, 24, 24, x), hg), gref,
                    "pinned gemv run");
  // A handle for the wrong shape is detected, not trusted: the mismatch
  // falls back to the ordinary cache probe and still computes the right op.
  expect_outcome_eq(rt.run(OpDesc::dot(u, v), hg), dref, "mismatched handle");
  // A default-constructed (invalid) handle behaves like no handle at all.
  expect_outcome_eq(rt.run(OpDesc::dot(u, v), host::PlanHandle{}), dref,
                    "invalid handle");
}

TEST(Runtime, PinnedPlansExemptFromEviction) {
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;
  Runtime rt(cfg);
  const auto& cache = rt.plan_cache();

  Rng rng(22);
  const auto a16 = rng.matrix(16, 16);
  const auto x16 = rng.vector(16);

  rt.run(OpDesc::gemv(a16, 16, 16, x16));  // builds an LRU entry
  EXPECT_EQ(cache.size(), 1u);
  const host::PlanHandle h = rt.pin_plan(OpDesc::gemv(a16, 16, 16, x16));
  ASSERT_TRUE(h.valid());
  // Pinning promotes the existing LRU entry rather than rebuilding it.
  EXPECT_EQ(cache.pinned_count(), 1u);
  EXPECT_EQ(cache.size(), 0u);

  // Churn far past the LRU capacity: the pinned plan must survive.
  for (std::size_t n : {24, 32, 40, 48, 56, 64}) {
    Rng r(100 + n);
    const auto a = r.matrix(n, n);
    const auto xx = r.vector(n);
    rt.run(OpDesc::gemv(a, n, n, xx));
  }
  EXPECT_LE(cache.size(), 2u);
  EXPECT_EQ(cache.pinned_count(), 1u);

  const u64 h0 = cache.hits();
  rt.run(OpDesc::gemv(a16, 16, 16, x16));  // pinned probe counts as a hit
  EXPECT_EQ(cache.hits(), h0 + 1);

  rt.pin_plan(OpDesc::gemv(a16, 16, 16, x16));  // idempotent
  EXPECT_EQ(cache.pinned_count(), 1u);
}

TEST(Runtime, PinnedCountPublishedAsGauge) {
  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);

  Rng rng(26);
  const auto u = rng.vector(32), v = rng.vector(32);
  rt.pin_plan(OpDesc::dot(u, v));
  rt.run(OpDesc::dot(u, v));  // run publishes the host.plan.* gauges

  auto lock = tel.lock();
  const telemetry::Metric* m = tel.metrics().find("host.plan.pinned");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 1.0);
}

TEST(Runtime, RunBatchFastPathMatchesPerOpRuns) {
  Rng rng(23);
  // Long same-shape runs (the staged fast path) with distinct data per op,
  // plus a shape switch and a trailing singleton — every outcome must be
  // bit-identical to a sequential per-op run, cycles included.
  std::vector<std::vector<double>> us, vs, xs;
  for (int i = 0; i < 12; ++i) {
    us.push_back(rng.vector(40));
    vs.push_back(rng.vector(40));
  }
  const auto a = rng.matrix(20, 20);
  for (int i = 0; i < 6; ++i) xs.push_back(rng.vector(20));

  std::vector<OpDesc> descs;
  for (int i = 0; i < 12; ++i) descs.push_back(OpDesc::dot(us[i], vs[i]));
  for (int i = 0; i < 6; ++i) descs.push_back(OpDesc::gemv(a, 20, 20, xs[i]));
  descs.push_back(OpDesc::dot(us[0], vs[0]));

  Runtime rt({});
  Runtime seq({});
  const auto outs = rt.run_batch(descs);
  ASSERT_EQ(outs.size(), descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    expect_outcome_eq(outs[i], seq.run(descs[i]), cat("batch[", i, "]"));
  }
}

TEST(Runtime, RunBatchFastPathPropagatesMidGroupErrors) {
  Rng rng(24);
  const auto u = rng.vector(32), v = rng.vector(32);
  const auto bad = rng.vector(16);  // wrong length, same PlanKey as dot(u,v)

  Runtime rt({});
  EXPECT_THROW(
      rt.run_batch({OpDesc::dot(u, v), OpDesc::dot(u, bad), OpDesc::dot(u, v)}),
      ConfigError);
  // Every job settled: the two good ops completed, the bad one failed.
  const auto stats = rt.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);
}

TEST(Runtime, TinySubmitStormAcrossShapesWithTinyCache) {
  // The small-op soak the executor was rebuilt for: 10k tiny submits across
  // four shapes through a capacity-2 plan cache, two shapes pinned, so the
  // two unpinned shapes continuously evict each other while pinned handles
  // bypass the churn. Every single future must be bit-identical (values and
  // cycles) to a sequential reference run.
  ContextConfig cfg;
  cfg.plan_cache_capacity = 2;
  Runtime rt(cfg);

  Rng rng(25);
  const auto u = rng.vector(24), v = rng.vector(24);
  const auto u2 = rng.vector(48), v2 = rng.vector(48);
  const auto a = rng.matrix(12, 12);
  const auto x = rng.vector(12);
  const auto a2 = rng.matrix(16, 16);
  const auto x2 = rng.vector(16);
  const OpDesc shapes[4] = {OpDesc::dot(u, v), OpDesc::dot(u2, v2),
                            OpDesc::gemv(a, 12, 12, x),
                            OpDesc::gemv(a2, 16, 16, x2)};
  const host::PlanHandle pins[2] = {rt.pin_plan(shapes[0]),
                                    rt.pin_plan(shapes[2])};

  Runtime seq({});
  Outcome want[4];
  for (int s = 0; s < 4; ++s) want[s] = seq.run(shapes[s]);

  const auto pool_work0 =
      ThreadPool::shared().local_pops() + ThreadPool::shared().steals();

  constexpr int kOps = 10000;
  std::vector<std::future<Outcome>> futs;
  futs.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    const int s = i & 3;
    if (s == 0) {
      futs.push_back(rt.submit(shapes[0], pins[0]));
    } else if (s == 2) {
      futs.push_back(rt.submit(shapes[2], pins[1]));
    } else {
      futs.push_back(rt.submit(shapes[s]));
    }
  }

  int value_mismatches = 0, cycle_mismatches = 0;
  for (int i = 0; i < kOps; ++i) {
    const Outcome got = futs[i].get();
    const Outcome& ref = want[i & 3];
    if (got.values != ref.values) ++value_mismatches;
    if (got.report.cycles != ref.report.cycles) ++cycle_mismatches;
  }
  EXPECT_EQ(value_mismatches, 0);
  EXPECT_EQ(cycle_mismatches, 0);
  EXPECT_EQ(rt.stats().completed, static_cast<u64>(kOps));
  EXPECT_EQ(rt.stats().failed, 0u);
  EXPECT_EQ(rt.plan_cache().pinned_count(), 2u);
  // Every op was executed off a worker deque (locally popped or stolen).
  const auto pool_work1 =
      ThreadPool::shared().local_pops() + ThreadPool::shared().steals();
  EXPECT_GE(pool_work1 - pool_work0, static_cast<unsigned long long>(kOps));
}

// ---- reduction-schedule replay (sim/schedule.hpp) -------------------------

namespace {

void expect_bitwise(const std::vector<double>& want,
                    const std::vector<double>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(fp::to_bits(want[i]), fp::to_bits(got[i])) << "values[" << i << "]";
  }
}

/// The schedule slot a runtime's plan for `desc` carries.
const sim::ScheduleSlot& slot_of(Runtime& rt, const OpDesc& desc) {
  return *rt.pin_plan(desc).plan().schedule;
}

std::size_t trace_events(const telemetry::Session& tel) {
  std::size_t n = 0;
  tel.trace().for_each([&n](const sim::TraceEvent&) { ++n; });
  return n;
}

}  // namespace

TEST(Replay, WarmRunsReplayAndMatchAFreshSimulation) {
  Rng rng(2801);
  const std::size_t rows = 40, cols = 37;
  const auto a = rng.matrix(rows, cols);
  const auto x1 = rng.vector(cols), x2 = rng.vector(cols);
  const auto u1 = rng.vector(301), v1 = rng.vector(301);
  const auto u2 = rng.vector(301), v2 = rng.vector(301);
  Runtime rt{ContextConfig{}};
  struct Op {
    OpDesc first, second;
  } ops[] = {{OpDesc::gemv(a, rows, cols, x1), OpDesc::gemv(a, rows, cols, x2)},
             {OpDesc::dot(u1, v1), OpDesc::dot(u2, v2)}};
  for (const Op& op : ops) {
    rt.run(op.first);  // simulates and records
    const sim::ScheduleSlot& slot = slot_of(rt, op.first);
    ASSERT_NE(slot.get(), nullptr);
    const Outcome replayed = rt.run(op.second);
    EXPECT_EQ(slot.replays(), 1u);
    Runtime fresh{ContextConfig{}};
    const Outcome simulated = fresh.run(op.second);
    EXPECT_EQ(slot_of(fresh, op.second).replays(), 0u);
    expect_bitwise(simulated.values, replayed.values);
    EXPECT_EQ(replayed.report.cycles, simulated.report.cycles);
    EXPECT_EQ(replayed.report.stall_cycles, simulated.report.stall_cycles);
    EXPECT_EQ(replayed.report.sram_words, simulated.report.sram_words);
  }
}

TEST(Replay, DotBatchOfOtherLengthsSimulates) {
  // Pair lengths are not part of the plan key: a batch of the same count
  // with other lengths must not replay the recorded schedule.
  Rng rng(2802);
  std::vector<std::vector<double>> us, vs, us2, vs2;
  for (std::size_t len : {24, 7, 1, 33}) {
    us.push_back(rng.vector(len));
    vs.push_back(rng.vector(len));
  }
  for (std::size_t len : {7, 24, 33, 1}) {
    us2.push_back(rng.vector(len));
    vs2.push_back(rng.vector(len));
  }
  Runtime rt{ContextConfig{}};
  rt.run(OpDesc::dot_batch(us, vs));
  const sim::ScheduleSlot& slot = slot_of(rt, OpDesc::dot_batch(us, vs));
  ASSERT_NE(slot.get(), nullptr);
  const Outcome other = rt.run(OpDesc::dot_batch(us2, vs2));
  EXPECT_EQ(slot.replays(), 0u);
  Runtime fresh{ContextConfig{}};
  const Outcome want = fresh.run(OpDesc::dot_batch(us2, vs2));
  expect_bitwise(want.values, other.values);
  EXPECT_EQ(other.report.cycles, want.report.cycles);
  rt.run(OpDesc::dot_batch(us, vs));
  EXPECT_EQ(slot.replays(), 1u);
}

TEST(Replay, TracedRunSimulates) {
  Rng rng(2803);
  const auto a = rng.matrix(24, 24);
  const auto x = rng.vector(24);
  const OpDesc desc = OpDesc::gemv(a, 24, 24, x);
  telemetry::Session tel;
  tel.trace().set_enabled(true);
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  const Outcome first = rt.run(desc);
  const std::size_t after_first = trace_events(tel);
  ASSERT_GT(after_first, 0u);
  const sim::ScheduleSlot& slot = slot_of(rt, desc);
  ASSERT_NE(slot.get(), nullptr);  // a traced run may still record
  const Outcome second = rt.run(desc);
  EXPECT_EQ(slot.replays(), 0u);
  EXPECT_EQ(trace_events(tel), 2 * after_first);
  expect_bitwise(first.values, second.values);
  tel.trace().set_enabled(false);
  rt.run(desc);
  EXPECT_EQ(slot.replays(), 1u);
}

TEST(Replay, ReplayedRunPublishesTheSimulatedMetrics) {
  // Engine metrics only: the runtime's own gauges carry wall-clock data.
  Rng rng(2804);
  const std::size_t rows = 19, cols = 45;
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  std::vector<std::vector<double>> us, vs;
  for (std::size_t len : {64, 5, 17}) {
    us.push_back(rng.vector(len));
    vs.push_back(rng.vector(len));
  }
  const auto run = [&](bool dot, sim::ScheduleSlot* slot) {
    telemetry::Session tel;
    if (dot) {
      blas1::DotConfig cfg;
      cfg.telemetry = &tel;
      cfg.schedule = slot;
      blas1::DotEngine(cfg).run(us, vs);
    } else {
      blas2::MxvTreeConfig cfg;
      cfg.telemetry = &tel;
      cfg.schedule = slot;
      blas2::MxvTreeEngine(cfg).run(a, rows, cols, x);
    }
    return telemetry::metrics_to_json(tel.metrics());
  };
  for (const bool dot : {true, false}) {
    const std::string simulated = run(dot, nullptr);
    sim::ScheduleSlot slot;
    EXPECT_EQ(run(dot, &slot), simulated);  // records
    EXPECT_EQ(run(dot, &slot), simulated);  // replays
    EXPECT_EQ(slot.replays(), 1u);
  }
}

TEST(Replay, PlanCacheExportsScheduleGauges) {
  Rng rng(2805);
  const auto u = rng.vector(100), v = rng.vector(100);
  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  rt.run(OpDesc::gemm(rng.matrix(8, 8), rng.matrix(8, 8), 8));
  EXPECT_FALSE(tel.metrics().contains("host.plan.schedules"));
  rt.run(OpDesc::dot(u, v));
  const auto* n = tel.metrics().find("host.plan.schedules");
  const auto* bytes = tel.metrics().find("host.plan.schedule_bytes");
  ASSERT_NE(n, nullptr);
  ASSERT_NE(bytes, nullptr);
  EXPECT_EQ(n->value, 1.0);
  EXPECT_GT(bytes->value, 0.0);

  // A 512x512 k = 4 tree GEMV: 72,704 ops over 512 rows, which run only two
  // programs of 142 ops once renamed: 504 steady-state rows, then the last
  // 8, which the circuit drains with no row behind them. The schedule
  // holds the object, the two programs and their code, the program runs,
  // its one set run and its telemetry fragment.
  telemetry::Session big_tel;
  ContextConfig big_cfg;
  big_cfg.telemetry = &big_tel;
  Runtime big(big_cfg);
  const std::size_t dim = 512;
  big.run(OpDesc::gemv(rng.matrix(dim, dim), dim, dim, rng.vector(dim)));
  const sim::Schedule& s =
      *slot_of(big, OpDesc::gemv(rng.matrix(dim, dim), dim, dim, rng.vector(dim))).get();
  EXPECT_EQ(s.ops, 72704u);
  ASSERT_EQ(s.programs.size(), 2u);
  EXPECT_EQ(s.code.size(), 2 * 142u);
  const std::vector<std::pair<u32, std::size_t>> runs = {{0, 504}, {1, 8}};
  EXPECT_EQ(s.program_runs, runs);
  EXPECT_EQ(s.bytes(), sizeof(sim::Schedule) + 2 * sizeof(sim::Program) +
                           s.code.size() * sizeof(u32) +
                           runs.size() * sizeof(runs[0]) + sizeof(s.set_runs[0]) +
                           s.fragment.size() * sizeof(telemetry::Metric));
  EXPECT_EQ(big_tel.metrics().find("host.plan.schedule_bytes")->value,
            static_cast<double>(s.bytes()));
  EXPECT_EQ(s.bytes(), 3696u);
  EXPECT_LE(s.bytes(), 16u * 1024);
}

TEST(Replay, ConcurrentSubmitsSplitWarmGemvReplaysOnThePool) {
  // Four threads submit a warmed 512x512 GEMV at once: each op runs in a
  // pool task and replays in blocks on nested parallel_for. Every result
  // must be run()'s, bit for bit.
  const std::size_t n = 512, threads = 4;
  Rng rng(2806);
  const auto a = rng.matrix(n, n);
  std::vector<std::vector<double>> xs;
  for (std::size_t t = 0; t < threads; ++t) xs.push_back(rng.vector(n));
  Runtime rt{ContextConfig{}};
  rt.run(OpDesc::gemv(a, n, n, xs[0]));  // simulates and records
  const sim::ScheduleSlot& slot = slot_of(rt, OpDesc::gemv(a, n, n, xs[0]));
  ASSERT_NE(slot.get(), nullptr);
  EXPECT_GE(slot.get()->ops / sim::kMinBlockOps, 4u);
  std::vector<Outcome> want;
  for (const auto& x : xs) want.push_back(rt.run(OpDesc::gemv(a, n, n, x)));
  const u64 warm = slot.replays();

  std::vector<Outcome> got(threads);
  std::vector<std::thread> submitters;
  std::atomic<std::size_t> ready{0};
  for (std::size_t t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      got[t] = rt.submit(OpDesc::gemv(a, n, n, xs[t])).get();
    });
  }
  for (auto& th : submitters) th.join();
  EXPECT_EQ(slot.replays(), warm + threads);
  for (std::size_t t = 0; t < threads; ++t) {
    expect_bitwise(want[t].values, got[t].values);
    EXPECT_EQ(got[t].report.cycles, want[t].report.cycles);
    EXPECT_EQ(got[t].report.stall_cycles, want[t].report.stall_cycles);
  }
}

// ---- op lifecycle ----------------------------------------------------------
// Every entry point (run, submit, run_batch, run_graph, submit_graph) with a
// good and a failing op, with a session attached and without one. Each row
// pins the stats counters, the flight record (kind, lane, stamp order,
// failure text), which spans and latencies were merged and the exported
// runtime gauges.

namespace {

enum class Entry { Run, Submit, RunBatch, RunParallel, RunGraph, SubmitGraph };

struct LifecycleCase {
  const char* name;
  Entry entry;
  bool good;
  bool attached;
};

void PrintTo(const LifecycleCase& c, std::ostream* os) { *os << c.name; }

bool is_graph(Entry e) { return e == Entry::RunGraph || e == Entry::SubmitGraph; }
bool is_pooled(Entry e) {
  return e == Entry::Submit || e == Entry::RunBatch ||
         e == Entry::RunParallel || e == Entry::SubmitGraph;
}
/// run_parallel's caller claims ops too: a single op runs on the caller.
bool on_caller(Entry e) { return !is_pooled(e) || e == Entry::RunParallel; }

/// A 32x32 GEMV, the same GEMV with a too-short x, a GEMV -> dot chain and
/// a graph whose dot lacks an operand (both failures are ConfigErrors raised
/// by validation, before any plan is resolved).
struct LifecycleOps {
  static constexpr std::size_t kN = 32;
  std::vector<double> a, x, x_bad;
  host::GraphDesc chain, broken;

  LifecycleOps() {
    Rng rng(2900);
    a = rng.matrix(kN, kN);
    x = rng.vector(kN);
    x_bad = rng.vector(kN / 2);
    chain.nodes.push_back({"ax", OpDesc::gemv(a, kN, kN, x), true});
    OpDesc dot;
    dot.kind = host::OpKind::Dot;
    dot.cols = kN;
    dot.a = &x;  // b edge-fed from the GEMV
    chain.nodes.push_back({"x.ax", dot, true});
    chain.edges.push_back({0, 1, host::OperandSlot::B});
    dot.a = nullptr;  // and a dot with neither operand
    broken.nodes.push_back({"d", dot, true});
  }
};

/// Drive one op through the row's entry point; returns its report cycles.
u64 drive(Runtime& rt, const LifecycleCase& c, const LifecycleOps& ops) {
  const OpDesc op = OpDesc::gemv(ops.a, LifecycleOps::kN, LifecycleOps::kN,
                                 c.good ? ops.x : ops.x_bad);
  const host::GraphDesc& g = c.good ? ops.chain : ops.broken;
  switch (c.entry) {
    case Entry::Run: return rt.run(op).report.cycles;
    case Entry::Submit: return rt.submit(op).get().report.cycles;
    case Entry::RunBatch: return rt.run_batch({op}).at(0).report.cycles;
    case Entry::RunParallel:
      return rt.run_parallel({op}).at(0).report.cycles;
    case Entry::RunGraph: return rt.run_graph(g).report.cycles;
    case Entry::SubmitGraph: return rt.submit_graph(g).get().report.cycles;
  }
  return 0;
}

double gauge(const telemetry::Session& tel, const char* name) {
  const telemetry::Metric* m = tel.metrics().find(name);
  return m ? m->value : 0.0;
}

}  // namespace

class OpLifecycle : public ::testing::TestWithParam<LifecycleCase> {};

TEST_P(OpLifecycle, StatsFlightRecordSpansAndGauges) {
  const LifecycleCase& c = GetParam();
  const bool pooled = is_pooled(c.entry);
  const LifecycleOps ops;

  ThreadPool pool(2);
  telemetry::Session tel;
  ContextConfig cfg;
  if (c.attached) cfg.telemetry = &tel;
  Runtime rt(cfg, &pool);

  bool threw = false;
  u64 cycles = 0;
  try {
    cycles = drive(rt, c, ops);
  } catch (const ConfigError&) {
    threw = true;
  }
  EXPECT_EQ(threw, !c.good);

  const auto s = rt.stats();
  EXPECT_EQ(s.submitted, pooled ? 1u : 0u);
  EXPECT_EQ(s.completed, c.good ? 1u : 0u);
  EXPECT_EQ(s.failed, c.good ? 0u : 1u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);

  if (!c.attached) {
    EXPECT_EQ(tel.flight().total(), 0u);
    EXPECT_TRUE(tel.spans().empty());
    EXPECT_TRUE(tel.metrics().empty());
    return;
  }

  // One flight record per op, on the caller's lane for the synchronous
  // entry points and run_parallel (whose caller runs a single op) and on
  // worker-id + 1 for the other pooled ones.
  ASSERT_EQ(tel.flight().total(), 1u);
  EXPECT_EQ(tel.flight().errors(), c.good ? 0u : 1u);
  const telemetry::TraceContext tc = tel.flight().snapshot().at(0);
  EXPECT_STREQ(tc.kind, is_graph(c.entry) ? "graph" : "gemv");
  if (on_caller(c.entry)) {
    EXPECT_EQ(tc.lane, 0u);
  } else {
    EXPECT_GE(tc.lane, 1u);
    EXPECT_LE(tc.lane, pool.size());
  }

  // Stamp order: submit <= dequeue (equal when synchronous) <= plan <= exec
  // <= complete; a failure in validation stamps neither plan nor exec.
  EXPECT_GT(tc.submit_ns, 0u);
  EXPECT_GE(tc.dequeue_ns, tc.submit_ns);
  if (!pooled) {
    EXPECT_EQ(tc.dequeue_ns, tc.submit_ns);
  }
  EXPECT_EQ(tc.failed, !c.good);
  if (c.good) {
    EXPECT_GE(tc.plan_ns, tc.dequeue_ns);
    EXPECT_GE(tc.exec_ns, tc.plan_ns);
    EXPECT_GE(tc.complete_ns, tc.exec_ns);
    EXPECT_EQ(tc.cycles, cycles);
    EXPECT_TRUE(tc.error.empty());
  } else {
    EXPECT_EQ(tc.plan_ns, 0u);
    EXPECT_EQ(tc.exec_ns, 0u);
    EXPECT_GE(tc.complete_ns, tc.dequeue_ns);
    EXPECT_EQ(tc.cycles, 0u);
    EXPECT_FALSE(tc.error.empty());
    EXPECT_EQ(tc.error.find('\n'), std::string::npos);
  }

  // Spans and latencies are merged only for a completed op, on its lane.
  const telemetry::Metric* e2e = tel.metrics().find("host.runtime.e2e");
  if (c.good) {
    ASSERT_FALSE(tel.spans().empty());
    for (const auto& sp : tel.spans().spans()) EXPECT_EQ(sp.lane, tc.lane);
    ASSERT_NE(e2e, nullptr);
    EXPECT_EQ(e2e->dist.count(), 1u);
  } else {
    EXPECT_TRUE(tel.spans().empty());
    EXPECT_TRUE(e2e == nullptr || e2e->dist.count() == 0u);
  }

  // The exported gauges read the settled counters, failed ops included.
  EXPECT_EQ(gauge(tel, "host.runtime.submitted"), pooled ? 1.0 : 0.0);
  EXPECT_EQ(gauge(tel, "host.runtime.completed"), c.good ? 1.0 : 0.0);
  EXPECT_EQ(gauge(tel, "host.runtime.failed"), c.good ? 0.0 : 1.0);
  EXPECT_EQ(gauge(tel, "host.runtime.queue_depth"), 0.0);
  EXPECT_EQ(gauge(tel, "host.runtime.in_flight"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Entries, OpLifecycle,
    ::testing::Values(
        LifecycleCase{"run_good_attached", Entry::Run, true, true},
        LifecycleCase{"run_good_detached", Entry::Run, true, false},
        LifecycleCase{"run_failing_attached", Entry::Run, false, true},
        LifecycleCase{"run_failing_detached", Entry::Run, false, false},
        LifecycleCase{"submit_good_attached", Entry::Submit, true, true},
        LifecycleCase{"submit_good_detached", Entry::Submit, true, false},
        LifecycleCase{"submit_failing_attached", Entry::Submit, false, true},
        LifecycleCase{"submit_failing_detached", Entry::Submit, false, false},
        LifecycleCase{"run_batch_good_attached", Entry::RunBatch, true, true},
        LifecycleCase{"run_batch_good_detached", Entry::RunBatch, true, false},
        LifecycleCase{"run_batch_failing_attached", Entry::RunBatch, false, true},
        LifecycleCase{"run_batch_failing_detached", Entry::RunBatch, false,
                      false},
        LifecycleCase{"run_parallel_good_attached", Entry::RunParallel, true,
                      true},
        LifecycleCase{"run_parallel_good_detached", Entry::RunParallel, true,
                      false},
        LifecycleCase{"run_parallel_failing_attached", Entry::RunParallel,
                      false, true},
        LifecycleCase{"run_parallel_failing_detached", Entry::RunParallel,
                      false, false},
        LifecycleCase{"run_graph_good_attached", Entry::RunGraph, true, true},
        LifecycleCase{"run_graph_good_detached", Entry::RunGraph, true, false},
        LifecycleCase{"run_graph_failing_attached", Entry::RunGraph, false, true},
        LifecycleCase{"run_graph_failing_detached", Entry::RunGraph, false,
                      false},
        LifecycleCase{"submit_graph_good_attached", Entry::SubmitGraph, true,
                      true},
        LifecycleCase{"submit_graph_good_detached", Entry::SubmitGraph, true,
                      false},
        LifecycleCase{"submit_graph_failing_attached", Entry::SubmitGraph,
                      false, true},
        LifecycleCase{"submit_graph_failing_detached", Entry::SubmitGraph,
                      false, false}),
    [](const ::testing::TestParamInfo<LifecycleCase>& info) {
      return std::string(info.param.name);
    });

TEST(OpLifecycle, FailuresPublishTheRuntimeGauges) {
  // A session whose last ops failed must not export stale counters: every
  // failure publishes, whichever entry point it came through.
  const LifecycleOps ops;
  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg);
  const Entry entries[] = {Entry::Run,      Entry::Submit,
                           Entry::RunBatch, Entry::RunParallel,
                           Entry::RunGraph, Entry::SubmitGraph};

  rt.run(OpDesc::gemv(ops.a, LifecycleOps::kN, LifecycleOps::kN, ops.x));
  double failed = 0.0;
  for (const Entry e : entries) {
    const LifecycleCase c{"failing", e, false, true};
    EXPECT_THROW(drive(rt, c, ops), ConfigError);
    EXPECT_EQ(gauge(tel, "host.runtime.failed"), ++failed);
  }
  EXPECT_EQ(rt.stats().failed, 6u);
  EXPECT_EQ(tel.flight().errors(), 6u);
  EXPECT_EQ(gauge(tel, "host.runtime.completed"), 1.0);
  EXPECT_EQ(gauge(tel, "host.runtime.submitted"), 4.0);
  EXPECT_EQ(gauge(tel, "host.runtime.in_flight"), 0.0);
  EXPECT_EQ(gauge(tel, "host.runtime.queue_depth"), 0.0);
}
