// Shard-scheduler tests (host/shard.hpp, docs/sharding.md): the determinism
// contract — GEMM values bit-identical to single-device execution at every
// l, GEMV bit-identical at l = 1 and reproducible at every l, l = 1 costing
// exactly the single-device run — plus the PR-5 discipline at the
// multi-FPGA level: the channel-driven simulation must land on the analytic
// GEMM model cycle-for-cycle, and the machine's link counters must account
// for every word the store-and-forward legs moved.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <latch>
#include <limits>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "fp/softfloat.hpp"
#include "host/context.hpp"
#include "host/runtime.hpp"
#include "host/shard.hpp"
#include "mem/channel.hpp"
#include "model/perf_model.hpp"
#include "telemetry/session.hpp"

using namespace xd;
using host::ContextConfig;
using host::OpDesc;
using host::Outcome;
using host::Placement;
using host::Runtime;
using host::ShardOutcome;
using host::ShardScheduler;

namespace {

/// 3 chassis x 2 nodes: six FPGAs, so l = 3 and l = 6 cross chassis
/// boundaries while l = 2 stays on one chassis's RocketIO chain.
machine::SystemConfig small_system() {
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  return sys;
}

bool bits_equal(double a, double b) {
  return fp::to_bits(a) == fp::to_bits(b);
}

void expect_bitwise(const std::vector<double>& want,
                    const std::vector<double>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(bits_equal(want[i], got[i]))
        << what << ": values[" << i << "] " << got[i] << " != " << want[i];
  }
}

}  // namespace

// ---- row partition --------------------------------------------------------

TEST(ShardModel, RowPartitionIsContiguousBalancedAndComplete) {
  for (std::size_t rows : {1u, 2u, 5u, 6u, 7u, 48u, 193u}) {
    for (unsigned l = 1; l <= std::min<std::size_t>(rows, 8); ++l) {
      std::size_t sum = 0;
      for (unsigned i = 0; i < l; ++i) {
        EXPECT_EQ(model::shard_row0(rows, l, i), sum);
        const std::size_t ri = model::shard_rows(rows, l, i);
        EXPECT_GE(ri, rows / l);
        EXPECT_LE(ri, rows / l + 1);
        sum += ri;
      }
      EXPECT_EQ(sum, rows);
    }
  }
}

TEST(ShardModel, GemmModelAtL1IsThePanelModel) {
  model::ShardGemmModel m;
  m.l = 1;
  m.k = 8;
  m.engine_l = 1;
  m.b = 48;
  m.engine_wpc = 1.0;
  EXPECT_EQ(model::shard_gemm_model_cycles(48, m),
            model::mm_hier_panel_cycles(48, 48, 8, 1, 48, 1.0));
}

TEST(ShardModel, TimelineThrowsWhenALegDoesNotFitAU64) {
  // Shard 1 sits one RocketIO hop from node 0 on a 2-node chassis.
  model::ShardChainModel chain;
  chain.nodes_per_chassis = 2;
  chain.xlink_wpc = 1.0;
  const std::vector<model::ShardCost> shards = {{0.0, 5, 0.0},
                                                {10.0, 5, 1.0}};
  // 1e-3 B/s: a vanishing rate whose legs still fit a u64 costs the ceil.
  chain.link_wpc = mem::Channel::words_per_cycle_for(1e-3, 170e6);
  const u64 scatter = static_cast<u64>(std::ceil(10.0 / chain.link_wpc));
  const u64 gather = static_cast<u64>(std::ceil(1.0 / chain.link_wpc));
  EXPECT_EQ(model::shard_timeline_cycles(shards, chain),
            scatter + 5 + gather);
  // 1e-300 B/s: ceil(words / wpc) is inf.
  chain.link_wpc = mem::Channel::words_per_cycle_for(1e-300, 170e6);
  EXPECT_THROW(model::shard_timeline_cycles(shards, chain), SimError);
  // Every count fits, but the gather leg ends past 2^64.
  chain.link_wpc = 1.0;
  const std::vector<model::ShardCost> late = {
      {0.0, 5, 0.0}, {10.0, std::numeric_limits<u64>::max() - 100, 1000.0}};
  EXPECT_THROW(model::shard_timeline_cycles(late, chain), SimError);
}

// ---- GEMM -----------------------------------------------------------------

TEST(ShardGemm, BitIdenticalToSingleDeviceAtEveryL) {
  const std::size_t n = 48;
  Rng rng(7);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);

  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemm(a, b, n));

  for (unsigned l = 1; l <= 6; ++l) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    EXPECT_EQ(out.plan.l, l);
    expect_bitwise(base.values, out.values, "sharded GEMM");
  }
}

TEST(ShardGemm, BitIdenticalWithNansAndInfinities) {
  // Extreme values: sharding must not change any element's accumulation
  // order, so NaN payloads and inf - inf outcomes reproduce exactly.
  const std::size_t n = 8;
  Rng rng(11);
  auto a = rng.matrix(n, n);
  auto b = rng.matrix(n, n);
  a[3] = std::numeric_limits<double>::quiet_NaN();
  a[10] = std::numeric_limits<double>::infinity();
  a[17] = -std::numeric_limits<double>::infinity();
  b[5] = std::numeric_limits<double>::infinity();
  b[12] = 0.0;

  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemm(a, b, n));
  for (unsigned l : {2u, 3u, 6u}) {
    ShardScheduler sched(rt, small_system());
    expect_bitwise(base.values, sched.run(OpDesc::gemm(a, b, n), l).values,
                   "extreme-value sharded GEMM");
  }
}

TEST(ShardGemm, L1CostsExactlyTheSingleDeviceRun) {
  const std::size_t n = 32;
  Rng rng(3);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemm(a, b, n));

  ShardScheduler sched(rt, small_system());
  const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), 1);
  EXPECT_EQ(out.report.cycles, base.report.cycles);
  EXPECT_EQ(out.report.staging_cycles, 0u);
  EXPECT_EQ(out.link_words, 0.0);
  EXPECT_EQ(out.interchassis_words, 0.0);
}

TEST(ShardGemm, ReportCarriesTheShardsWordsAndStalls) {
  const std::size_t n = 48;
  Rng rng(7);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  const host::PerfReport base = rt.run(OpDesc::gemm(a, b, n)).report;

  // l = 1: the shard's report is the single-device report, field by field.
  ShardScheduler one(rt, small_system());
  const host::PerfReport r1 = one.run(OpDesc::gemm(a, b, n), 1).report;
  EXPECT_EQ(r1.cycles, base.cycles);
  EXPECT_EQ(r1.compute_cycles, base.compute_cycles);
  EXPECT_EQ(r1.staging_cycles, base.staging_cycles);
  EXPECT_EQ(r1.flops, base.flops);
  EXPECT_EQ(r1.stall_cycles, base.stall_cycles);
  EXPECT_EQ(r1.sram_words, base.sram_words);
  EXPECT_EQ(r1.dram_words, base.dram_words);
  EXPECT_EQ(r1.clock_mhz, base.clock_mhz);
  EXPECT_GT(r1.sram_words, 0.0);
  EXPECT_GT(r1.dram_words, 0.0);

  // l > 1: words are the per-shard sums; stalls are the slowest shard's.
  for (unsigned l : {2u, 3u, 6u}) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    double sram = 0.0, dram = 0.0;
    const Outcome* slowest = &out.shards.front();
    for (const Outcome& s : out.shards) {
      sram += s.report.sram_words;
      dram += s.report.dram_words;
      if (s.report.cycles > slowest->report.cycles) slowest = &s;
    }
    EXPECT_EQ(out.report.sram_words, sram) << "l=" << l;
    EXPECT_EQ(out.report.dram_words, dram) << "l=" << l;
    EXPECT_EQ(out.report.compute_cycles, slowest->report.cycles) << "l=" << l;
    EXPECT_EQ(out.report.stall_cycles, slowest->report.stall_cycles)
        << "l=" << l;
  }
}

TEST(ShardGemm, SimulationMatchesAnalyticModelCycleForCycle) {
  // The multi-FPGA extension of the PR-5 model/sim cross-validation: the
  // channel-driven scatter/compute/gather timeline must equal
  // model::shard_gemm_model_cycles exactly, for every shard count.
  const std::size_t n = 48;
  Rng rng(5);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  for (unsigned l = 1; l <= 6; ++l) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    EXPECT_EQ(out.report.cycles, out.plan.model_cycles) << "l=" << l;
  }
}

TEST(ShardGemm, ModelMatchesSimulationAcrossEngineClocks) {
  // The link rates follow the engine clock. At 180 MHz a 2 GB/s RocketIO
  // link moves 25 words per 18 cycles, so words / rate lands on exact
  // integers; a leg must still cost exactly the model's ceil there.
  Rng rng(29);
  for (std::size_t n : {96u, 200u}) {
    const auto a = rng.matrix(n, n);
    const auto b = rng.matrix(n, n);
    for (double mhz : {100.0, 130.0, 164.0, 180.0, 200.0, 250.0}) {
      ContextConfig cfg;
      cfg.mm_clock_mhz = mhz;
      Runtime rt(cfg);
      ShardScheduler sched(rt, small_system());
      for (unsigned l : {2u, 3u, 6u}) {
        const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
        EXPECT_EQ(out.report.cycles, out.plan.model_cycles)
            << "n=" << n << " clock=" << mhz << " MHz l=" << l;
      }
    }
  }
}

TEST(ShardGemm, LinkCountersAccountForEveryLegWord) {
  // Store-and-forward conservation: shard i's scatter panel (its A rows
  // plus all of B) crosses i hops, its result panel crosses i hops back, and
  // every hop's channel records the whole panel.
  const std::size_t n = 24;
  Rng rng(13);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  for (unsigned l : {2u, 4u, 6u}) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemm(a, b, n), l);
    double want = 0.0;
    for (unsigned i = 1; i < l; ++i) {
      const std::size_t rows_i = model::shard_rows(n, l, i);
      want += static_cast<double>(i) *
              static_cast<double>(rows_i * n + n * n + rows_i * n);
    }
    EXPECT_EQ(out.link_words + out.interchassis_words, want) << "l=" << l;
  }
}

TEST(ShardGemm, InterChassisTrafficOnlyWhenTheChainCrossesAChassis) {
  const std::size_t n = 24;
  Rng rng(17);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);

  // l = 2 on a 2-node chassis: both shards share one chassis.
  ShardScheduler two(rt, small_system());
  const ShardOutcome on_chassis = two.run(OpDesc::gemm(a, b, n), 2);
  EXPECT_GT(on_chassis.link_words, 0.0);
  EXPECT_EQ(on_chassis.interchassis_words, 0.0);

  // l = 6 over 3 chassis of 2: hops 1->2 and 3->4 cross chassis.
  ShardScheduler six(rt, small_system());
  const ShardOutcome crossing = six.run(OpDesc::gemm(a, b, n), 6);
  EXPECT_GT(crossing.interchassis_words, 0.0);

  // The same six shards on one 6-node chassis never leave its RocketIO.
  machine::SystemConfig wide;
  wide.chassis_count = 1;
  wide.chassis.nodes = 6;
  ShardScheduler flat(rt, wide);
  const ShardOutcome local = flat.run(OpDesc::gemm(a, b, n), 6);
  EXPECT_GT(local.link_words, 0.0);
  EXPECT_EQ(local.interchassis_words, 0.0);
  expect_bitwise(crossing.values, local.values, "topology-independent values");
}

// ---- GEMV -----------------------------------------------------------------

TEST(ShardGemv, L1IsBitIdenticalAndCostsTheSingleDeviceRun) {
  const std::size_t rows = 48, cols = 40;
  Rng rng(23);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemv(a, rows, cols, x));

  ShardScheduler sched(rt, small_system());
  const ShardOutcome out = sched.run(OpDesc::gemv(a, rows, cols, x), 1);
  expect_bitwise(base.values, out.values, "l=1 GEMV");
  EXPECT_EQ(out.report.cycles, base.report.cycles);
}

TEST(ShardGemv, ShardedValuesMatchTheSingleDeviceRunNumerically) {
  // At l > 1 the reduction circuit pairs each row's chunk sums in an order
  // that depends on which other rows share Buf_red (see host/shard.hpp), so
  // the comparison is numerical, not bitwise.
  const std::size_t rows = 47, cols = 88;
  Rng rng(29);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);
  const Outcome base = rt.run(OpDesc::gemv(a, rows, cols, x));

  for (unsigned l : {2u, 3u, 6u}) {
    ShardScheduler sched(rt, small_system());
    const ShardOutcome out = sched.run(OpDesc::gemv(a, rows, cols, x), l);
    ASSERT_EQ(out.values.size(), base.values.size());
    for (std::size_t i = 0; i < base.values.size(); ++i) {
      EXPECT_NEAR(out.values[i], base.values[i],
                  1e-12 * std::max(1.0, std::fabs(base.values[i])))
          << "l=" << l << " row " << i;
    }
  }
}

TEST(ShardGemv, RerunsAreBitIdenticalWithIdenticalTimelines) {
  const std::size_t rows = 31, cols = 64;
  Rng rng(31);
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);

  for (unsigned l : {2u, 6u}) {
    ShardScheduler first(rt, small_system());
    const ShardOutcome one = first.run(OpDesc::gemv(a, rows, cols, x), l);
    ShardScheduler second(rt, small_system());
    const ShardOutcome two = second.run(OpDesc::gemv(a, rows, cols, x), l);
    expect_bitwise(one.values, two.values, "rerun values");
    EXPECT_EQ(one.report.cycles, two.report.cycles);
    for (unsigned s = 0; s < l; ++s) {
      EXPECT_EQ(one.plan.pieces[s].done, two.plan.pieces[s].done);
      EXPECT_EQ(one.plan.pieces[s].scatter_ready,
                two.plan.pieces[s].scatter_ready);
      EXPECT_EQ(one.shards[s].report.cycles, two.shards[s].report.cycles);
    }
  }
}

// ---- execution ------------------------------------------------------------

namespace {

/// Parks every worker of the shared pool on a latch until destroyed, then
/// waits for the workers to leave, so no parked task outlives the latch.
class ParkedPool {
 public:
  ParkedPool() : workers_(ThreadPool::shared().size()) {
    for (unsigned w = 0; w < workers_; ++w) {
      ThreadPool::shared().post([this] {
        parked_.fetch_add(1);
        release_.wait();
        left_.fetch_add(1);
      });
    }
    while (parked_.load() < workers_) std::this_thread::yield();
  }
  ~ParkedPool() {
    release_.count_down();
    while (left_.load() < workers_) std::this_thread::yield();
  }
  ParkedPool(const ParkedPool&) = delete;
  ParkedPool& operator=(const ParkedPool&) = delete;

 private:
  const unsigned workers_;
  std::atomic<unsigned> parked_{0};
  std::atomic<unsigned> left_{0};
  std::latch release_{1};
};

}  // namespace

TEST(ShardExec, PiecesRunOnTheCallerWhileEveryPoolWorkerIsParked) {
  // The caller claims pieces alongside the pool workers, so with no worker
  // free it runs all six itself, and the values and cycles are those of an
  // unblocked run.
  const std::size_t n = 48;
  Rng rng(53);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  const auto x = rng.vector(n);
  Runtime rt(ContextConfig{});
  ShardScheduler sched(rt, small_system());
  const ShardOutcome gemm = sched.run(OpDesc::gemm(a, b, n), 6);
  const ShardOutcome gemv = sched.run(OpDesc::gemv(a, n, n, x), 6);

  const ParkedPool parked;
  const ShardOutcome gemm_parked = sched.run(OpDesc::gemm(a, b, n), 6);
  const ShardOutcome gemv_parked = sched.run(OpDesc::gemv(a, n, n, x), 6);
  expect_bitwise(gemm.values, gemm_parked.values, "GEMM, pool parked");
  expect_bitwise(gemv.values, gemv_parked.values, "GEMV, pool parked");
  EXPECT_EQ(gemm_parked.report.cycles, gemm.report.cycles);
  EXPECT_EQ(gemv_parked.report.cycles, gemv.report.cycles);
}

TEST(ShardExec, PiecesWithASessionOverlapOnTheRuntimesPoolAndMerge) {
  // With a session attached, each piece records into the shard of the
  // thread that runs it and merges on that thread's lane, so the pieces
  // overlap in time rather than queueing on the session lock. They run on
  // the runtime's own pool: the shared pool is parked, so a piece on a lane
  // above 0 ran on a worker of `pool`. Overlap depends on a worker waking
  // while the caller runs its piece, so a few runs may pass without it.
  const std::size_t n = 192;
  Rng rng(59);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  Runtime detached(ContextConfig{});
  const ShardOutcome want =
      ShardScheduler(detached, small_system()).run(OpDesc::gemm(a, b, n), 6);

  ThreadPool pool(2);
  telemetry::Session tel;
  ContextConfig cfg;
  cfg.telemetry = &tel;
  Runtime rt(cfg, &pool);
  ShardScheduler sched(rt, small_system());
  const ParkedPool parked;
  bool overlapped = false;
  bool on_workers = false;
  u64 runs = 0;
  for (; runs < 50 && !(overlapped && on_workers); ++runs) {
    tel.flight().clear();
    const ShardOutcome got = sched.run(OpDesc::gemm(a, b, n), 6);
    expect_bitwise(want.values, got.values, "GEMM with a session");
    ASSERT_EQ(got.report.cycles, want.report.cycles);
    const auto recs = tel.flight().snapshot();
    ASSERT_EQ(recs.size(), 6u);
    for (const auto& r : recs) {
      EXPECT_FALSE(r.failed);
      EXPECT_LE(r.lane, pool.size());
      on_workers |= r.lane > 0;
      for (const auto& q : recs) {
        overlapped |= &r != &q && r.exec_ns < q.complete_ns &&
                      q.exec_ns < r.complete_ns;
      }
    }
  }
  EXPECT_TRUE(overlapped) << "no two pieces overlapped in " << runs << " runs";
  EXPECT_TRUE(on_workers) << "no piece ran on the runtime's pool";

  // Every piece counted as a pooled op and merged its telemetry.
  const auto s = rt.stats();
  EXPECT_EQ(s.submitted, 6 * runs);
  EXPECT_EQ(s.completed, 6 * runs);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  const telemetry::Metric* e2e = tel.metrics().find("host.runtime.e2e");
  ASSERT_NE(e2e, nullptr);
  EXPECT_EQ(e2e->dist.count(), 6 * runs);
  bool worker_spans = false;
  for (const auto& sp : tel.spans().spans()) {
    EXPECT_LE(sp.lane, pool.size());
    worker_spans |= sp.lane > 0;
  }
  EXPECT_TRUE(worker_spans);
}

// ---- planning -------------------------------------------------------------

TEST(ShardPlan, AutoChoiceScoresEveryFeasibleLAndPicksTheModeledBest) {
  const std::size_t n = 48;
  Rng rng(37);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  ContextConfig cfg;
  Runtime rt(cfg);
  ShardScheduler sched(rt, small_system());
  const host::ShardPlan sp = sched.plan(OpDesc::gemm(a, b, n));

  ASSERT_EQ(sp.candidates.size(), 6u);  // min(6 FPGAs, 48 rows)
  u64 best = sp.candidates.front().model_cycles;
  for (const auto& c : sp.candidates) best = std::min(best, c.model_cycles);
  EXPECT_EQ(sp.model_cycles, best);
  for (const auto& c : sp.candidates) {
    if (c.l == sp.l) {
      EXPECT_EQ(c.model_cycles, sp.model_cycles);
    }
    // Ties go to the smaller l: every strictly smaller candidate is slower.
    if (c.l < sp.l) {
      EXPECT_GT(c.model_cycles, sp.model_cycles);
    }
  }

  ASSERT_EQ(sp.pieces.size(), sp.l);
  for (unsigned i = 0; i < sp.l; ++i) {
    EXPECT_EQ(sp.pieces[i].chassis, i / 2);
    EXPECT_EQ(sp.pieces[i].node, i % 2);
  }
}

TEST(ShardPlan, MaxLIsBoundedByRowsAndByTheMachine) {
  Rng rng(41);
  ContextConfig cfg;
  Runtime rt(cfg);

  // 4 rows on a 6-FPGA machine: rows bound.
  const auto a4 = rng.matrix(4, 32);
  const auto x4 = rng.vector(32);
  ShardScheduler sched(rt, small_system());
  EXPECT_EQ(sched.plan(OpDesc::gemv(a4, 4, 32, x4)).candidates.size(), 4u);
  EXPECT_THROW(sched.plan(OpDesc::gemv(a4, 4, 32, x4), 5), ConfigError);

  // 48 rows on a 2-FPGA machine: machine bound.
  machine::SystemConfig tiny;
  tiny.chassis_count = 1;
  tiny.chassis.nodes = 2;
  const auto a48 = rng.matrix(48, 32);
  const auto x48 = rng.vector(32);
  ShardScheduler small(rt, tiny);
  EXPECT_EQ(small.plan(OpDesc::gemv(a48, 48, 32, x48)).candidates.size(), 2u);
  EXPECT_THROW(small.plan(OpDesc::gemv(a48, 48, 32, x48), 3), ConfigError);
}

TEST(ShardPlan, RejectsUnshardableDescriptors) {
  Rng rng(43);
  ContextConfig cfg;
  Runtime rt(cfg);
  ShardScheduler sched(rt, small_system());

  const auto a = rng.matrix(16, 16);
  const auto x = rng.vector(16);
  // DRAM placement: the scatter legs are the staging.
  EXPECT_THROW(
      sched.plan(OpDesc::gemv(a, 16, 16, x, Placement::Dram)), ConfigError);
  // Column GEMV: the rows/k hazard bound breaks under row splitting.
  EXPECT_THROW(sched.plan(OpDesc::gemv(a, 16, 16, x, Placement::Sram,
                                       host::GemvArch::Column)),
               ConfigError);
  // Only GEMM and GEMV shard.
  EXPECT_THROW(sched.plan(OpDesc::dot(x, x)), ConfigError);
  // Panel GEMM descriptors are derived by the scheduler, not passed in.
  EXPECT_THROW(sched.plan(OpDesc::gemm_panel(a, 16, a, 16)), ConfigError);

  // Degenerate machine shapes are rejected at construction.
  machine::SystemConfig broken;
  broken.chassis_count = 0;
  EXPECT_THROW(ShardScheduler bad(rt, broken), ConfigError);
}

TEST(ShardPlan, NonPositiveLinkRatesOrClockAreRejectedBeforePlanning) {
  // A zero rate would make every leg's ceil(words / rate) infinite; the
  // scheduler must refuse the machine instead of planning with it.
  Rng rng(47);
  const auto a = rng.matrix(24, 24);
  const auto b = rng.matrix(24, 24);
  ContextConfig cfg;
  Runtime rt(cfg);
  const auto zero_link = [](machine::SystemConfig& s) {
    s.chassis.link_bytes_per_s = 0.0;
  };
  const auto negative_xlink = [](machine::SystemConfig& s) {
    s.interchassis_bytes_per_s = -4.0 * kGB;
  };
  const auto zero_clock = [](machine::SystemConfig& s) {
    s.chassis.node.clock_mhz = 0.0;
  };
  for (const auto& edit : {+zero_link, +negative_xlink, +zero_clock}) {
    machine::SystemConfig sys = small_system();
    edit(sys);
    EXPECT_THROW(
        {
          ShardScheduler sched(rt, sys);
          sched.plan(OpDesc::gemm(a, b, 24), 0);
        },
        ConfigError);
  }
}

// ---- resources ------------------------------------------------------------

namespace {

long peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

}  // namespace

TEST(ShardResources, DefaultInstallationRunStaysUnderAnRssBound) {
  // The default SystemConfig is 12 chassis x 6 nodes, whose node memories
  // alone describe ~5.6 GiB. A sharded op drives only the link chain, so
  // its peak RSS must not grow by more than 64 MiB, at l values that cross
  // several chassis boundaries.
  const std::size_t n = 48, rows = 144, cols = 64;
  Rng rng(53);
  const auto a = rng.matrix(n, n);
  const auto b = rng.matrix(n, n);
  const auto ga = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  ContextConfig cfg;
  Runtime rt(cfg);
  ShardScheduler sched(rt);  // the default installation
  ASSERT_EQ(sched.system_config().chassis_count, 12u);
  ASSERT_EQ(sched.system_config().chassis.nodes, 6u);

  const long before = peak_rss_kib();
  const ShardOutcome gemm = sched.run(OpDesc::gemm(a, b, n), 13);
  const ShardOutcome gemv = sched.run(OpDesc::gemv(ga, rows, cols, x), 36);
  const long grown_kib = peak_rss_kib() - before;
  EXPECT_LE(grown_kib, 64 * 1024) << "peak RSS grew by " << grown_kib << " KiB";

  EXPECT_EQ(gemm.plan.l, 13u);
  EXPECT_EQ(gemm.report.cycles, gemm.plan.model_cycles);
  EXPECT_GT(gemm.interchassis_words, 0.0);
  EXPECT_EQ(gemv.plan.l, 36u);
  EXPECT_EQ(gemv.values.size(), rows);
  EXPECT_GT(gemv.interchassis_words, 0.0);
}

TEST(ShardReplay, ConcurrentFirstRunsRecordOneSchedule) {
  // GEMV 192 at l = 3: three equal 64-row shards run concurrently on the
  // pool against one plan. One of them records its schedule; the other two
  // simulate. Every later run replays, bit-identical to the first.
  Rng rng(2810);
  const std::size_t n = 192;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  Runtime rt{ContextConfig{}};
  ShardScheduler sched(rt, small_system());
  const ShardOutcome first = sched.run(OpDesc::gemv(a, n, n, x), 3);
  ASSERT_EQ(first.plan.l, 3u);
  EXPECT_EQ(rt.plan_cache().schedule_use().schedules, 1u);
  const ShardOutcome second = sched.run(OpDesc::gemv(a, n, n, x), 3);
  EXPECT_EQ(rt.plan_cache().schedule_use().schedules, 1u);
  expect_bitwise(first.values, second.values, "replayed shards");
  EXPECT_EQ(second.report.cycles, first.report.cycles);
  for (unsigned i = 0; i < 3; ++i) {
    EXPECT_EQ(second.shards[i].report.cycles, first.shards[i].report.cycles);
  }
  Runtime fresh{ContextConfig{}};
  ShardScheduler again(fresh, small_system());
  expect_bitwise(first.values, again.run(OpDesc::gemv(a, n, n, x), 3).values,
                 "fresh runtime");
}
