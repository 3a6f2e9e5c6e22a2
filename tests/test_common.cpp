// Tests for the common utilities: streaming statistics, histogram,
// deterministic RNG, table rendering, and the integer helpers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/util.hpp"

using namespace xd;

TEST(Util, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
  EXPECT_EQ(ceil_div(1023, 512), 2u);
}

TEST(Util, Pow2AndLogs) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(6));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(7), 2u);
  EXPECT_EQ(log2_floor(8), 3u);
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(7), 3u);
  EXPECT_EQ(log2_ceil(8), 3u);
  EXPECT_EQ(log2_ceil(9), 4u);
}

TEST(Util, CatAndRequire) {
  EXPECT_EQ(cat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "boom"), ConfigError);
}

TEST(RunningStats, MomentsAndExtremes) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);  // classic textbook set
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(1);
  RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Histogram, BucketsQuantilesOverflow) {
  Histogram h(10);
  for (std::size_t v = 0; v < 20; ++v) h.add(v);  // 10..19 overflow
  EXPECT_EQ(h.total(), 20u);
  EXPECT_EQ(h.overflow(), 10u);
  EXPECT_EQ(h.max_value(), 19u);
  EXPECT_DOUBLE_EQ(h.mean(), 9.5);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_LE(h.quantile(0.25), 5u);
  EXPECT_EQ(h.quantile(1.0), 10u);  // overflow bucket
}

TEST(Histogram, RejectsZeroBuckets) {
  // Regression: Histogram(0) used to construct with only the overflow slot,
  // so add()'s bucket clamp (min(value, size - 1)) misfiled every sample
  // into bucket 0 while buckets() reported zero. Zero buckets is now a
  // configuration error.
  EXPECT_THROW(Histogram(0), ConfigError);
  // One bucket stays the smallest valid configuration: bucket 0 + overflow.
  Histogram h(1);
  h.add(0);
  h.add(5);
  EXPECT_EQ(h.buckets(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(QuantileSketch, ExactForPowersOfTwoAndIntegers) {
  // Bucket lower edges are exact for short-mantissa values, so a stream of
  // small integers answers its quantiles exactly.
  QuantileSketch s;
  for (double v : {1.0, 2.0, 4.0, 8.0, 16.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 4.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 16.0);
}

TEST(QuantileSketch, RelativeErrorBound) {
  // 16 sub-buckets per octave: any positive sample's bucket lower edge is
  // within ~3.2% below the sample.
  QuantileSketch s;
  Rng rng(77);
  std::vector<double> vals;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.001, 1e6);
    vals.push_back(v);
    s.add(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.95, 0.99}) {
    const double est = s.quantile(q);
    const double exact =
        vals[static_cast<std::size_t>(q * (vals.size() - 1))];
    EXPECT_NEAR(est, exact, exact * 0.04) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeMatchesCombinedStreamBitwise) {
  // Integer-count buckets: merging shards is bit-identical to one stream,
  // regardless of interleaving — the property concurrent telemetry relies
  // on.
  QuantileSketch a, b, all;
  Rng rng(78);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(0.1, 1e4);
    ((i % 3 == 0) ? a : b).add(v);
    all.add(v);
  }
  QuantileSketch merged_ab = a, merged_ba = b;
  merged_ab.merge(b);
  merged_ba.merge(a);
  EXPECT_EQ(merged_ab.count(), all.count());
  EXPECT_EQ(merged_ab.buckets(), all.buckets());
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged_ab.quantile(q), all.quantile(q)) << "q=" << q;
    EXPECT_EQ(merged_ba.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, NonPositiveAndNonFiniteSamples) {
  QuantileSketch s;
  s.add(-5.0);
  s.add(0.0);
  s.add(std::nan(""));
  s.add(std::numeric_limits<double>::infinity());
  s.add(2.0);
  EXPECT_EQ(s.count(), 5u);
  // Negatives sort below zero/NaN, which sort below positives; callers clamp
  // with a tracked min/max (RunningStats) for hard bounds.
  EXPECT_LT(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.6), 0.0);
  EXPECT_GE(s.quantile(1.0), 2.0);
  QuantileSketch empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  s.reset();
  EXPECT_TRUE(s.empty());
}

TEST(Utilization, Fraction) {
  Utilization u;
  for (int i = 0; i < 10; ++i) u.tick(i % 4 == 0);
  EXPECT_EQ(u.cycles(), 10u);
  EXPECT_EQ(u.busy_cycles(), 3u);
  EXPECT_NEAR(u.fraction(), 0.3, 1e-12);
  u.reset();
  EXPECT_EQ(u.cycles(), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42), c(43);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const u64 va = a.next_u64();
    all_equal &= (va == b.next_u64());
    any_diff |= (va != c.next_u64());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformBoundsAndMoments) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 3.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.02);
  EXPECT_NEAR(s.variance(), 25.0 / 12.0, 0.05);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(8);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const u64 v = rng.uniform_int(3, 7);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 7u);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(TextTable, RendersAlignedMarkdown) {
  TextTable t({"a", "bee"});
  t.row("x", 1);
  t.row("longer", 2.5);
  const auto s = t.render();
  EXPECT_NE(s.find("| a      | bee |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 2.5 |"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(TextTable::num(1.0), "1");
  EXPECT_EQ(TextTable::num(2.5), "2.5");
  EXPECT_EQ(TextTable::num(0.125, 3), "0.125");
  EXPECT_EQ(TextTable::num(0.0), "0");
  // Very large/small switch to scientific.
  EXPECT_NE(TextTable::num(1.5e9).find("e"), std::string::npos);
  EXPECT_NE(TextTable::num(1.5e-9).find("e"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

#include <stdexcept>

#include "common/parallel.hpp"

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; }, 7);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyAndSingleWorker) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(10, 0);
  parallel_for(0, 10, [&](std::size_t i) { hits[i]++; }, 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, DeterministicResults) {
  // Same per-index computation regardless of worker count.
  auto run = [](unsigned workers) {
    std::vector<double> v(256);
    parallel_for(0, 256, [&](std::size_t i) {
      v[i] = std::sin(static_cast<double>(i)) * 3.0;
    }, workers);
    return v;
  };
  EXPECT_EQ(run(1), run(8));
}

TEST(ParallelFor, RethrowsOnTheCallerAfterEveryOtherChunkFinished) {
  // 4 workers over 64 indices: chunks of 16. Index 20 ends chunk 1 early;
  // chunks 0, 2 and 3 must have finished by the time the caller sees the
  // throw. Inline (1 worker), the loop simply stops at 20.
  for (const unsigned workers : {1u, 4u}) {
    std::vector<int> hits(64, 0);
    try {
      parallel_for(0, 64, [&](std::size_t i) {
        if (i == 20) throw std::runtime_error("index 20");
        hits[i] = 1;
      }, workers);
      ADD_FAILURE() << "no exception with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 20");
    }
    for (std::size_t i = 0; i < 64; ++i) {
      const bool ran = i < 20 || (workers > 1 && i >= 32);
      EXPECT_EQ(hits[i], ran ? 1 : 0) << "index " << i << ", " << workers
                                      << " workers";
    }
  }
}

// ---- work-stealing pool and its environment knob ---------------------------

#include <cstdlib>
#include <future>
#include <thread>

#include "common/thread_pool.hpp"

namespace {

/// RAII guard: set XDBLAS_WORKERS for one test, restore the prior value.
struct WorkersEnv {
  std::string saved;
  bool had;
  WorkersEnv() {
    const char* old = std::getenv("XDBLAS_WORKERS");
    had = old != nullptr;
    if (had) saved = old;
  }
  ~WorkersEnv() {
    if (had) {
      ::setenv("XDBLAS_WORKERS", saved.c_str(), 1);
    } else {
      ::unsetenv("XDBLAS_WORKERS");
    }
  }
  static void set(const char* v) { ::setenv("XDBLAS_WORKERS", v, 1); }
};

}  // namespace

TEST(DefaultWorkers, AcceptsExactPositiveIntegers) {
  WorkersEnv env;
  WorkersEnv::set("17");
  EXPECT_EQ(default_workers(), 17u);
  WorkersEnv::set("1");
  EXPECT_EQ(default_workers(), 1u);
  WorkersEnv::set("4096");  // the cap itself is legal
  EXPECT_EQ(default_workers(), 4096u);
}

TEST(DefaultWorkers, RejectsGarbageWithFallback) {
  WorkersEnv env;
  ::unsetenv("XDBLAS_WORKERS");
  const unsigned fallback = default_workers();  // hardware concurrency
  // strtol would silently accept "4abc" as 4; the parser must not.
  for (const char* bad :
       {"4abc", "abc", "-2", "0", "4097", "0x10", "99999999999999999999"}) {
    WorkersEnv::set(bad);
    EXPECT_EQ(default_workers(), fallback) << "XDBLAS_WORKERS=" << bad;
  }
  WorkersEnv::set("");  // empty counts as unset, no warning
  EXPECT_EQ(default_workers(), fallback);
}

TEST(ThreadPool, CountsEveryExecutedTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 200; ++i) {
    futs.push_back(pool.submit([&] { ran.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 200);
  // local_pops + steals tallies exactly the tasks executed, however the
  // deques split them.
  EXPECT_EQ(pool.local_pops() + pool.steals(), 200u);
}

TEST(ThreadPool, IdleWorkerStealsFromBusyWorkersDeque) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  // The outer job posts 50 tasks — worker-local, so they all land on ITS
  // deque — then blocks until they finish. It never pops while blocked, so
  // every one of the 50 must be stolen by the other worker.
  auto fut = pool.submit([&] {
    for (int i = 0; i < 50; ++i) pool.post([&] { done.fetch_add(1); });
    while (done.load() < 50) std::this_thread::yield();
  });
  fut.get();
  EXPECT_EQ(done.load(), 50);
  EXPECT_GE(pool.steals(), 50u);
}

TEST(ThreadPool, NestedParallelForInsidePooledJobsIsDeterministic) {
  // Pool jobs that each run a parallel_for (which fans chunks onto the
  // SHARED pool while the caller participates): no deadlock, and every
  // job's result matches the sequential computation exactly.
  ThreadPool pool(4);
  auto golden = [](int j) {
    double s = 0.0;
    for (std::size_t i = 0; i < 512; ++i) {
      s += std::sin(static_cast<double>(i + 31 * j));
    }
    return s;
  };
  std::vector<std::future<double>> futs;
  for (int j = 0; j < 16; ++j) {
    futs.push_back(pool.submit([j] {
      std::vector<double> v(512);
      parallel_for(0, v.size(), [&](std::size_t i) {
        v[i] = std::sin(static_cast<double>(i + 31 * j));
      }, 4);
      double s = 0.0;
      for (double x : v) s += x;
      return s;
    }));
  }
  for (int j = 0; j < 16; ++j) EXPECT_EQ(futs[j].get(), golden(j)) << j;
}
