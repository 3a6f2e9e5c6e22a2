// Tests for the proposed reduction circuit (Sec 4.3) and the baseline
// circuits: correctness of sums, the paper's latency and buffer claims, and
// the no-stall property for the workload classes the BLAS designs generate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "blas1/dot_engine.hpp"
#include "blas2/mxv_tree.hpp"
#include "common/random.hpp"
#include "fp/backend.hpp"
#include "fp/softfloat.hpp"
#include "reduce/baselines.hpp"
#include "reduce/reduction_circuit.hpp"
#include "sim/mac_reduce.hpp"
#include "sim/schedule.hpp"

using namespace xd;
using reduce::Input;
using reduce::ReductionCircuit;
using reduce::ReductionCircuitBase;
using reduce::SetResult;

namespace {

struct RunOutcome {
  std::vector<double> sums;  ///< indexed by set id
  u64 total_cycles = 0;
  u64 stalls = 0;
};

/// Stream `sets` into the circuit one element per cycle (re-offering on
/// stalls), then run it dry; returns per-set sums in arrival order.
RunOutcome run_reduction(ReductionCircuitBase& c,
                         const std::vector<std::vector<double>>& sets) {
  RunOutcome out;
  out.sums.assign(sets.size(), std::nan(""));
  std::size_t done = 0;

  auto drain_result = [&] {
    if (auto r = c.take_result()) {
      EXPECT_LT(r->set_id, sets.size());
      EXPECT_TRUE(std::isnan(out.sums[r->set_id])) << "duplicate set result";
      out.sums[r->set_id] = fp::from_bits(r->bits);
      ++done;
    }
  };

  const u64 budget = 10'000'000;
  std::size_t si = 0, ei = 0;
  while (si < sets.size()) {
    Input in{fp::to_bits(sets[si][ei]), ei + 1 == sets[si].size()};
    const bool consumed = c.cycle(in);
    ++out.total_cycles;
    drain_result();
    if (consumed) {
      if (++ei == sets[si].size()) {
        ei = 0;
        ++si;
      }
    }
    if (out.total_cycles >= budget) throw std::runtime_error("input stream wedged");
  }
  while (done < sets.size()) {
    c.cycle(std::nullopt);
    ++out.total_cycles;
    drain_result();
    if (out.total_cycles >= budget) throw std::runtime_error("drain wedged");
  }
  out.stalls = c.stall_cycles();
  EXPECT_FALSE(c.busy());
  return out;
}

/// Accurate reference sum (long double accumulate).
double ref_sum(const std::vector<double>& v) {
  long double s = 0.0L;
  for (double x : v) s += static_cast<long double>(x);
  return static_cast<double>(s);
}

double abs_tolerance(const std::vector<double>& v) {
  long double mag = 0.0L;
  for (double x : v) mag += std::fabs(static_cast<long double>(x));
  return std::max(1e-18, static_cast<double>(mag) * 1e-12);
}

std::vector<std::vector<double>> make_sets(Rng& rng,
                                           const std::vector<std::size_t>& sizes) {
  std::vector<std::vector<double>> sets;
  sets.reserve(sizes.size());
  for (std::size_t s : sizes) sets.push_back(rng.vector(s, -10.0, 10.0));
  return sets;
}

void expect_sums_match(const RunOutcome& out,
                       const std::vector<std::vector<double>>& sets) {
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_FALSE(std::isnan(out.sums[i])) << "set " << i << " never completed";
    EXPECT_NEAR(out.sums[i], ref_sum(sets[i]), abs_tolerance(sets[i]))
        << "set " << i << " (size " << sets[i].size() << ")";
  }
}

u64 total_inputs(const std::vector<std::vector<double>>& sets) {
  u64 n = 0;
  for (const auto& s : sets) n += s.size();
  return n;
}

}  // namespace

// ---------------------------------------------------------------------------
// Proposed circuit: correctness across set-size regimes.

class ProposedUniformSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProposedUniformSizes, CorrectSums) {
  const std::size_t s = GetParam();
  Rng rng(1000 + s);
  ReductionCircuit c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(40, s));
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
}

TEST_P(ProposedUniformSizes, BufferNeverExceedsAlphaSquared) {
  const std::size_t s = GetParam();
  Rng rng(2000 + s);
  ReductionCircuit c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(40, s));
  run_reduction(c, sets);
  EXPECT_LE(c.stats().peak_buffer_words,
            static_cast<std::size_t>(c.alpha()) * c.alpha());
}

INSTANTIATE_TEST_SUITE_P(SetSizes, ProposedUniformSizes,
                         ::testing::Values(1, 2, 3, 7, 13, 14, 15, 17, 28, 50,
                                           100, 333, 1024));

// The paper's headline claims, checked for the BLAS-shaped workloads
// (uniform sizes >= alpha): no stall, and p sets reduced in fewer than
// sum(s_i) + 2*alpha^2 cycles.
class ProposedClaims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ProposedClaims, NoStallAndLatencyBound) {
  const std::size_t s = GetParam();
  Rng rng(3000 + s);
  ReductionCircuit c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(60, s));
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  EXPECT_EQ(out.stalls, 0u) << "uniform sets of size " << s << " stalled";
  const u64 alpha2 = static_cast<u64>(c.alpha()) * c.alpha();
  EXPECT_LT(out.total_cycles, total_inputs(sets) + 2 * alpha2);
}

INSTANTIATE_TEST_SUITE_P(SizesAtLeastAlpha, ProposedClaims,
                         ::testing::Values(14, 15, 20, 27, 64, 100, 500));

TEST(Proposed, SingleLargeSetLatency) {
  // One set of size n: the circuit should finish in n + O(alpha^2) cycles.
  Rng rng(42);
  ReductionCircuit c;
  const auto sets = make_sets(rng, {4096});
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  EXPECT_EQ(out.stalls, 0u);
  const u64 alpha2 = static_cast<u64>(c.alpha()) * c.alpha();
  EXPECT_LT(out.total_cycles, 4096 + 2 * alpha2);
}

TEST(Proposed, ArbitraryMixedSizesAreCorrect) {
  Rng rng(77);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 200; ++i) sizes.push_back(rng.uniform_int(1, 60));
  ReductionCircuit c;
  const auto sets = make_sets(rng, sizes);
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  // Arbitrary tiny sets may stall (the drain needs alpha^2-ish cycles per
  // batch); correctness and bounded buffers must hold regardless.
  EXPECT_LE(c.stats().peak_buffer_words,
            static_cast<std::size_t>(c.alpha()) * c.alpha());
}

TEST(Proposed, ManySingleElementSets) {
  Rng rng(78);
  ReductionCircuit c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(100, 1));
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
}

TEST(Proposed, AlternatingTinyAndHuge) {
  Rng rng(79);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 30; ++i) sizes.push_back(i % 2 == 0 ? 1 : 200);
  ReductionCircuit c;
  const auto sets = make_sets(rng, sizes);
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
}

TEST(Proposed, DeterministicBits) {
  Rng rng(80);
  const auto sets = make_sets(rng, {100, 37, 14, 1, 250});
  auto run_bits = [&] {
    ReductionCircuit c;
    std::vector<u64> bits(sets.size());
    std::size_t done = 0, si = 0, ei = 0;
    u64 guard = 0;
    while (done < sets.size()) {
      std::optional<Input> in;
      if (si < sets.size()) {
        in = Input{fp::to_bits(sets[si][ei]), ei + 1 == sets[si].size()};
      }
      const bool consumed = c.cycle(in);
      if (consumed) {
        if (++ei == sets[si].size()) {
          ei = 0;
          ++si;
        }
      }
      if (auto r = c.take_result()) {
        bits[r->set_id] = r->bits;
        ++done;
      }
      if (++guard > 1'000'000) throw std::runtime_error("wedged");
    }
    return bits;
  };
  EXPECT_EQ(run_bits(), run_bits());
}

TEST(Proposed, AdderUtilizationIsHighForLargeSets) {
  Rng rng(81);
  ReductionCircuit c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(50, 64));
  run_reduction(c, sets);
  // s=64 >> alpha: nearly every element needs one addition.
  EXPECT_GT(c.adder_utilization(), 0.8);
}

TEST(Proposed, SpecialValuesPropagate) {
  ReductionCircuit c;
  std::vector<std::vector<double>> sets = {
      {1.0, std::numeric_limits<double>::infinity(), 2.0},
      {1e308, 1e308, -1e308},  // transient overflow stays inf
      {5.0, -5.0, 0.0}};
  const auto out = run_reduction(c, sets);
  EXPECT_TRUE(std::isinf(out.sums[0]));
  EXPECT_TRUE(std::isinf(out.sums[1]));  // inf once produced is sticky
  EXPECT_EQ(out.sums[2], 0.0);
}

// ---------------------------------------------------------------------------
// Two-adder ablation: same correctness, no stalls even for adversarial sizes.

TEST(TwoAdderVariant, CorrectAndFewerStalls) {
  Rng rng(90);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 150; ++i) sizes.push_back(rng.uniform_int(1, 40));
  const auto sets = make_sets(rng, sizes);

  ReductionCircuit one(fp::kAdderStages, /*dedicated_drain_adder=*/false);
  ReductionCircuit two(fp::kAdderStages, /*dedicated_drain_adder=*/true);
  const auto out1 = run_reduction(one, sets);
  const auto out2 = run_reduction(two, sets);
  expect_sums_match(out1, sets);
  expect_sums_match(out2, sets);
  EXPECT_LE(out2.stalls, out1.stalls);
  EXPECT_LE(out2.total_cycles, out1.total_cycles);
}

// ---------------------------------------------------------------------------
// Baselines: correctness and characteristic costs.

class BaselineCorrectness
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BaselineCorrectness, SumsMatch) {
  const auto [kind, s] = GetParam();
  Rng rng(500 + static_cast<u64>(kind) * 31 + s);
  std::vector<std::size_t> sizes(25, s);
  const auto sets = make_sets(rng, sizes);

  std::unique_ptr<ReductionCircuitBase> c;
  switch (kind) {
    case 0:
      c = std::make_unique<reduce::StallingAccumulator>();
      break;
    case 1:
      c = std::make_unique<reduce::KoggeTree>(log2_ceil(std::max<u64>(s, 2)));
      break;
    default:
      c = std::make_unique<reduce::SingleAdderGreedy>();
      break;
  }
  const auto out = run_reduction(*c, sets);
  expect_sums_match(out, sets);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, BaselineCorrectness,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2, 3, 5, 14, 17, 64, 200)));

TEST(Baselines, StallingAccumulatorPaysAlphaPerElement) {
  Rng rng(91);
  reduce::StallingAccumulator c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(10, 100));
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  // ~alpha cycles per element (minus the free first element of each set).
  EXPECT_GT(out.total_cycles, 10ull * 99ull * (fp::kAdderStages - 1));
}

TEST(Baselines, KoggeTreeMatchesProposedThroughputWithMoreAdders) {
  Rng rng(92);
  const auto sets = make_sets(rng, std::vector<std::size_t>(30, 128));
  reduce::KoggeTree tree(7);  // 2^7 = 128
  ReductionCircuit proposed;
  const auto out_t = run_reduction(tree, sets);
  const auto out_p = run_reduction(proposed, sets);
  expect_sums_match(out_t, sets);
  expect_sums_match(out_p, sets);
  EXPECT_EQ(tree.adders_used(), 7u);
  EXPECT_EQ(proposed.adders_used(), 1u);
  // Both accept one element per cycle; total cycles within ~2 alpha^2.
  EXPECT_NEAR(static_cast<double>(out_t.total_cycles),
              static_cast<double>(out_p.total_cycles),
              2.0 * fp::kAdderStages * fp::kAdderStages + 100.0);
}

TEST(Baselines, KoggeTreeUndersizedThrows) {
  Rng rng(93);
  reduce::KoggeTree tree(2);  // handles sets up to 4 elements
  const auto sets = make_sets(rng, {8});
  EXPECT_THROW(run_reduction(tree, sets), ConfigError);
}

TEST(Baselines, GreedyBufferGrowsPastAlphaSquaredOnAdversarialStream) {
  // Many tiny sets followed by interleaving forces the greedy design's
  // unbounded buffer up; the proposed circuit holds at alpha^2 (with stalls).
  Rng rng(94);
  std::vector<std::size_t> sizes(3000, 2);
  const auto sets = make_sets(rng, sizes);
  reduce::SingleAdderGreedy greedy;
  const auto out = run_reduction(greedy, sets);
  expect_sums_match(out, sets);
  EXPECT_GT(greedy.peak_buffer_words(), 0u);
}

// ---------------------------------------------------------------------------
// The circuit is parametric in the adder depth alpha; the paper's claims must
// hold for any pipelined adder, not just the 14-stage core.

class AlphaSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(AlphaSweep, ClaimsHoldAcrossPipelineDepths) {
  const unsigned alpha = GetParam();
  Rng rng(4000 + alpha);
  ReductionCircuit c(alpha);
  EXPECT_EQ(c.alpha(), alpha);
  // Uniform sets of size exactly alpha (the tight case) and of 3*alpha.
  for (std::size_t mult : {1ul, 3ul}) {
    ReductionCircuit circuit(alpha);
    const auto sets =
        make_sets(rng, std::vector<std::size_t>(40, alpha * mult));
    const auto out = run_reduction(circuit, sets);
    expect_sums_match(out, sets);
    EXPECT_EQ(out.stalls, 0u) << "alpha=" << alpha << " mult=" << mult;
    const u64 alpha2 = static_cast<u64>(alpha) * alpha;
    EXPECT_LT(out.total_cycles, total_inputs(sets) + 2 * alpha2);
    EXPECT_LE(circuit.stats().peak_buffer_words, alpha2);
  }
}

TEST_P(AlphaSweep, RandomSizesCorrectAtAnyDepth) {
  const unsigned alpha = GetParam();
  Rng rng(5000 + alpha);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 80; ++i) sizes.push_back(rng.uniform_int(1, 4 * alpha));
  ReductionCircuit c(alpha);
  const auto sets = make_sets(rng, sizes);
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  EXPECT_LE(c.stats().peak_buffer_words,
            static_cast<std::size_t>(alpha) * alpha);
}

INSTANTIATE_TEST_SUITE_P(Depths, AlphaSweep,
                         ::testing::Values(2, 3, 4, 5, 8, 11, 14, 16, 24));

TEST(Proposed, SumInvariantUnderSetPermutation) {
  // Delivering the same sets in a different order must give the same sums
  // (each set reduces independently; only which buffer row it lands in
  // changes).
  Rng rng(6001);
  const auto sets = make_sets(rng, {37, 14, 100, 5, 64, 1, 29});
  ReductionCircuit c1, c2;
  const auto fwd = run_reduction(c1, sets);
  std::vector<std::vector<double>> rev(sets.rbegin(), sets.rend());
  const auto bwd = run_reduction(c2, rev);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_NEAR(fwd.sums[i], bwd.sums[sets.size() - 1 - i],
                abs_tolerance(sets[i]));
  }
}

TEST(Proposed, ExhaustiveTinyAlphaSweep) {
  // alpha = 3: enumerate EVERY sequence of up to 5 sets with sizes 1..6 and
  // verify sums, the buffer bound, and termination. 6^1+...+6^5 = 9330
  // complete simulations — an exhaustive check of the control logic at a
  // scale where all row/column interleavings occur.
  const unsigned alpha = 3;
  const std::size_t max_size = 6;
  u64 runs = 0;
  std::vector<std::size_t> sizes;

  std::function<void()> recurse = [&] {
    if (!sizes.empty()) {
      Rng rng(7000 + runs);
      ReductionCircuit c(alpha);
      const auto sets = make_sets(rng, sizes);
      const auto out = run_reduction(c, sets);
      for (std::size_t i = 0; i < sets.size(); ++i) {
        ASSERT_NEAR(out.sums[i], ref_sum(sets[i]), abs_tolerance(sets[i]))
            << "sizes[" << i << "]=" << sizes[i] << " run " << runs;
      }
      ASSERT_LE(c.stats().peak_buffer_words,
                static_cast<std::size_t>(alpha) * alpha);
      ++runs;
    }
    if (sizes.size() == 5) return;
    for (std::size_t s = 1; s <= max_size; ++s) {
      sizes.push_back(s);
      recurse();
      sizes.pop_back();
    }
  };
  recurse();
  EXPECT_EQ(runs, 6u + 36 + 216 + 1296 + 7776);
}

TEST(Baselines, NiHwangCorrectButStallsBetweenSets) {
  Rng rng(95);
  reduce::NiHwangReducer c;
  const auto sets = make_sets(rng, std::vector<std::size_t>(20, 50));
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  // Every set but the first waits for the previous drain: stalls pile up.
  EXPECT_GT(out.stalls, 19u);
  // The proposed circuit handles the same stream with zero stalls.
  ReductionCircuit proposed;
  const auto out_p = run_reduction(proposed, sets);
  expect_sums_match(out_p, sets);
  EXPECT_EQ(out_p.stalls, 0u);
  EXPECT_LT(out_p.total_cycles, out.total_cycles);
}

TEST(Baselines, NiHwangSingleSetIsEfficient) {
  // For its designed use case (one vector) the method is fine: ~s cycles.
  Rng rng(96);
  reduce::NiHwangReducer c;
  const auto sets = make_sets(rng, {2000});
  const auto out = run_reduction(c, sets);
  expect_sums_match(out, sets);
  EXPECT_EQ(out.stalls, 0u);
  EXPECT_LT(out.total_cycles, 2000 + 20 * fp::kAdderStages);
}

TEST(Proposed, InputBubblesDoNotDisturbCorrectness) {
  // Real datapaths deliver bubbles (idle cycles) inside a set whenever the
  // upstream stalls; the circuit must absorb them. Deliver every element
  // with a random 0-3 cycle gap.
  Rng rng(6100);
  const auto sets = make_sets(rng, {50, 14, 1, 200, 33, 7});
  ReductionCircuit c;
  std::vector<double> sums(sets.size(), std::nan(""));
  std::size_t done = 0, si = 0, ei = 0;
  u64 guard = 0;
  while (done < sets.size()) {
    std::optional<Input> in;
    const bool bubble = rng.uniform_int(0, 3) != 0 || si >= sets.size();
    if (!bubble && si < sets.size()) {
      in = Input{fp::to_bits(sets[si][ei]), ei + 1 == sets[si].size()};
    }
    const bool consumed = c.cycle(in);
    if (in && consumed && ++ei == sets[si].size()) {
      ei = 0;
      ++si;
    }
    if (auto r = c.take_result()) {
      sums[r->set_id] = fp::from_bits(r->bits);
      ++done;
    }
    ASSERT_LT(++guard, 1'000'000u);
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_NEAR(sums[i], ref_sum(sets[i]), abs_tolerance(sets[i])) << i;
  }
  EXPECT_LE(c.stats().peak_buffer_words,
            static_cast<std::size_t>(c.alpha()) * c.alpha());
}

TEST(Proposed, BurstThenSilence) {
  // Alternating dense bursts and long silences across set boundaries.
  Rng rng(6101);
  const auto sets = make_sets(rng, std::vector<std::size_t>(12, 40));
  ReductionCircuit c;
  std::size_t done = 0, si = 0, ei = 0;
  u64 t = 0, guard = 0;
  while (done < sets.size()) {
    const bool silent = (t / 64) % 2 == 1;  // every other 64-cycle window
    std::optional<Input> in;
    if (!silent && si < sets.size()) {
      in = Input{fp::to_bits(sets[si][ei]), ei + 1 == sets[si].size()};
    }
    const bool consumed = c.cycle(in);
    ++t;
    if (in && consumed && ++ei == sets[si].size()) {
      ei = 0;
      ++si;
    }
    if (auto r = c.take_result()) {
      EXPECT_NEAR(fp::from_bits(r->bits), ref_sum(sets[r->set_id]),
                  abs_tolerance(sets[r->set_id]));
      ++done;
    }
    ASSERT_LT(++guard, 1'000'000u);
  }
}

// ---- the value-op log (reduce::value_op, sim/schedule.hpp) ---------------

namespace {

/// Drive `red` over sets of the given sizes (one input per cycle when it
/// accepts) until every set is emitted; returns the sums by set id.
std::vector<u64> drive(reduce::ReductionCircuit& red,
                       const std::vector<std::vector<u64>>& sets) {
  std::vector<u64> out(sets.size());
  std::size_t set = 0, pos = 0, done = 0;
  while (done < sets.size()) {
    std::optional<reduce::Input> in;
    if (set < sets.size()) {
      in = reduce::Input{sets[set][pos], pos + 1 == sets[set].size()};
    }
    if (red.cycle(in) && in && ++pos == sets[set].size()) {
      pos = 0;
      ++set;
    }
    while (auto r = red.take_result()) {
      out[r->set_id] = r->bits;
      ++done;
    }
  }
  return out;
}

/// Record `sets` through a fresh k = 1 circuit under the active backend:
/// publishes the schedule into `slot` and returns the circuit's own sums.
std::vector<u64> record(sim::ScheduleSlot& slot,
                        const std::vector<std::vector<u64>>& sets) {
  sim::TreeScratch scratch(sim::mac_reduce_key(1, fp::kAdderStages,
                                               fp::kMultiplierStages));
  sim::ScheduleRecorder rec(&slot, scratch);
  EXPECT_NE(rec.log(), nullptr);
  scratch.red.record_ops(rec.log());
  std::vector<u64> want = drive(scratch.red, sets);
  rec.schedule()->set_shape(
      sets.size(), [&](std::size_t i) { return sets[i].size(); }, 1);
  rec.publish();
  return want;
}

/// The stage callable for raw circuit inputs (k = 1): set i's elements.
auto raw_stage(const std::vector<std::vector<u64>>& sets) {
  return [&sets](std::size_t s0, std::size_t s1, u64* dst) {
    for (std::size_t i = s0; i < s1; ++i) {
      dst = std::copy(sets[i].begin(), sets[i].end(), dst);
    }
  };
}

/// Replay `s` whole, then as 1, 2, 3 and 7 blocks run last block first on
/// one thread (so each block finds the previous block's registers and
/// inputs): every result must be `want`, bit for bit.
template <typename Stage>
void expect_block_split_invisible(const sim::Schedule& s,
                                  const std::vector<u64>& want, Stage&& stage,
                                  const std::string& what) {
  ASSERT_EQ(want.size(), s.sets) << what;
  sim::TreeScratch scratch(sim::mac_reduce_key(1, fp::kAdderStages,
                                               fp::kMultiplierStages));
  std::vector<double> whole(s.sets);
  sim::replay(s, scratch, whole, stage);
  for (std::size_t i = 0; i < s.sets; ++i) {
    ASSERT_EQ(fp::to_bits(whole[i]), want[i]) << what << " whole, set " << i;
  }
  for (const std::size_t blocks : {1u, 2u, 3u, 7u}) {
    std::vector<u64> in(s.chunk_inputs), reg(s.program_registers * sim::kLanes);
    std::vector<double> got(s.sets, std::nan(""));
    std::size_t nonempty = 0;
    for (std::size_t b = blocks; b-- > 0;) {
      const std::size_t s0 = sim::block_first_set(s, b, blocks);
      const std::size_t s1 = sim::block_first_set(s, b + 1, blocks);
      ASSERT_LE(s0, s1);
      nonempty += s0 < s1;
      sim::replay_sets(s, s0, s1, got.data() + s0, in.data(), reg.data(), stage);
    }
    if (blocks > 1) {
      EXPECT_GE(nonempty, 2u) << what << ", " << blocks << " blocks";
    }
    for (std::size_t i = 0; i < s.sets; ++i) {
      ASSERT_EQ(fp::to_bits(got[i]), want[i])
          << what << ", " << blocks << " blocks, set " << i;
    }
  }
}

/// Publish a hand-built op log for sets of the given lengths (k = 1)
/// through a fresh recorder into `slot`.
void publish_log(sim::ScheduleSlot& slot, std::vector<u32> ops,
                 const std::vector<std::size_t>& lens) {
  sim::TreeScratch scratch(sim::mac_reduce_key(1, fp::kAdderStages,
                                               fp::kMultiplierStages));
  sim::ScheduleRecorder rec(&slot, scratch);
  ASSERT_NE(rec.log(), nullptr);
  *rec.log() = std::move(ops);
  rec.schedule()->set_shape(lens.size(), [&](std::size_t i) { return lens[i]; }, 1);
  rec.publish();
}

}  // namespace

TEST(ValueOpLog, ReplayReproducesTheCircuitBitForBit) {
  // Set sizes below, at and far above alpha, including single-element sets,
  // so the log holds every op kind and out-of-order emits.
  Rng rng(2820);
  std::vector<std::vector<u64>> sets;
  for (std::size_t len : {1, 3, 14, 15, 40, 2, 1, 90, 7, 28, 1, 5}) {
    std::vector<u64> s(len);
    for (auto& v : s) v = fp::to_bits(rng.uniform(-1.0, 1.0));
    sets.push_back(std::move(s));
  }
  sim::TreeScratch scratch(sim::mac_reduce_key(1, fp::kAdderStages,
                                               fp::kMultiplierStages));
  sim::ScheduleSlot slot;
  sim::ScheduleRecorder rec(&slot, scratch);
  ASSERT_NE(rec.log(), nullptr);
  scratch.red.record_ops(rec.log());
  const std::vector<u64> want = drive(scratch.red, sets);
  std::set<unsigned> kinds;
  for (const u32 op : *rec.log()) kinds.insert(reduce::value_op::kind(op));
  EXPECT_EQ(kinds.size(), 4u);

  sim::Schedule& s = *rec.schedule();
  s.set_shape(sets.size(), [&](std::size_t i) { return sets[i].size(); }, 1);
  rec.publish();
  ASSERT_NE(slot.get(), nullptr);
  std::vector<double> got(sets.size());
  sim::replay(*slot.get(), scratch, got, raw_stage(sets));
  for (std::size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(fp::to_bits(got[i]), want[i]) << "set " << i;
  }
}

TEST(ValueOpLog, PublishedSetsShareRenamedPrograms) {
  // Each set runs one program: its ops with registers named 0, 1, ... in
  // order of first use, consuming the set's inputs, the last op its one
  // Emit. Sets with the same ops share a program; bytes() counts exactly
  // the programs, their code and the runs.
  Rng rng(2821);
  std::vector<std::vector<u64>> sets;
  for (std::size_t len : {1, 30, 2, 14, 90, 1, 13}) {
    std::vector<u64> s(len);
    for (auto& v : s) v = fp::to_bits(rng.uniform(-1.0, 1.0));
    sets.push_back(std::move(s));
  }
  sim::ScheduleSlot slot;
  record(slot, sets);
  const sim::Schedule& s = *slot.get();
  namespace vo = reduce::value_op;
  std::size_t set = 0, ops = 0;
  for (const auto& [program, count] : s.program_runs) {
    ASSERT_LT(program, s.programs.size());
    const sim::Program& p = s.programs[program];
    for (std::size_t i = set; i < set + count; ++i) {
      EXPECT_EQ(p.inputs, sets[i].size()) << "set " << i;
    }
    set += count;
    ops += count * p.ops;
  }
  EXPECT_EQ(set, sets.size());
  EXPECT_EQ(ops, s.ops);
  // The two single-element sets (Direct r0, Emit r0) share one program.
  EXPECT_EQ(s.programs.size(), sets.size() - 1);
  std::size_t code = 0;
  for (const sim::Program& p : s.programs) {
    EXPECT_EQ(p.first, code);
    code += p.ops;
    u32 named = 0;
    std::size_t consumed = 0;
    for (u32 o = p.first; o < p.first + p.ops; ++o) {
      const u32 op = s.code[o];
      const vo::Kind kind = vo::kind(op);
      consumed += kind == vo::Direct || kind == vo::Fold;
      EXPECT_EQ(kind == vo::Emit, o + 1 == p.first + p.ops);
      for (const u32 r : {vo::first(op), kind == vo::Drain ? vo::second(op) : 0u}) {
        EXPECT_LE(r, named) << "registers are named in order of first use";
        named = std::max(named, r + 1);
      }
    }
    EXPECT_EQ(consumed, p.inputs);
    EXPECT_EQ(named, p.registers);
    EXPECT_LE(p.registers, s.program_registers);
  }
  EXPECT_EQ(code, s.code.size());
  EXPECT_EQ(s.bytes(), sizeof(sim::Schedule) +
                           s.programs.size() * sizeof(sim::Program) +
                           s.code.size() * sizeof(u32) +
                           s.program_runs.size() * sizeof(s.program_runs[0]) +
                           s.set_runs.size() * sizeof(s.set_runs[0]) +
                           s.fragment.size() * sizeof(telemetry::Metric));
}

TEST(ValueOpLog, BlockSplitIsInvisible) {
  // Raw circuit sets: lengths 1, below alpha (14), at it and far above.
  Rng rng(2822);
  std::vector<std::vector<u64>> sets;
  for (std::size_t len : {1, 3, 14, 15, 40, 2, 1, 90, 7, 14, 28, 1, 5, 400, 13}) {
    std::vector<u64> s(len);
    for (auto& v : s) v = fp::to_bits(rng.uniform(-1.0, 1.0));
    sets.push_back(std::move(s));
  }
  sim::ScheduleSlot raw;
  const std::vector<u64> want = record(raw, sets);
  expect_block_split_invisible(*raw.get(), want, raw_stage(sets), "circuit sets");

  // A dot batch of mixed lengths: the recording run's results are the
  // circuit's own outputs.
  std::vector<std::vector<double>> us, vs;
  for (std::size_t len : {1, 2, 3, 27, 28, 29, 300, 5, 64, 1, 700, 56}) {
    us.push_back(rng.vector(len));
    vs.push_back(rng.vector(len));
  }
  sim::ScheduleSlot dslot;
  blas1::DotConfig dcfg;
  dcfg.schedule = &dslot;
  const auto dot = blas1::DotEngine(dcfg).run(us, vs);
  std::vector<u64> dwant;
  for (const double d : dot.results) dwant.push_back(fp::to_bits(d));
  const fp::Backend& be = fp::active_backend();
  expect_block_split_invisible(
      *dslot.get(), dwant,
      [&](std::size_t i0, std::size_t i1, u64* dst) {
        for (std::size_t i = i0; i < i1; ++i) {
          be.mac_groups(us[i].data(), vs[i].data(), dst, us[i].size(), dcfg.k);
          dst += (us[i].size() + dcfg.k - 1) / dcfg.k;
        }
      },
      "dot batch");

  // GEMV rows.
  const std::size_t rows = 37, cols = 53;
  const auto a = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  sim::ScheduleSlot gslot;
  blas2::MxvTreeConfig gcfg;
  gcfg.schedule = &gslot;
  const auto gemv = blas2::MxvTreeEngine(gcfg).run(a, rows, cols, x);
  std::vector<u64> gwant;
  for (const double y : gemv.y) gwant.push_back(fp::to_bits(y));
  const std::size_t groups = (cols + gcfg.k - 1) / gcfg.k;
  expect_block_split_invisible(
      *gslot.get(), gwant,
      [&](std::size_t r0, std::size_t r1, u64* dst) {
        for (std::size_t r = r0; r < r1; ++r, dst += groups) {
          be.mac_groups(a.data() + r * cols, x.data(), dst, cols, gcfg.k);
        }
      },
      "gemv rows");
}

TEST(ValueOpLog, NonFiniteBlocksMatchSimulationUnderBothBackends) {
  // Partial sums that overflow to +inf and -inf in different slots and then
  // meet (inf - inf), NaN payloads of either sign meeting in folds and
  // drains, and a lone sNaN that no add ever touches. Under the native
  // backend the inline host adds see non-finite values here, so these
  // blocks take the fallback through the backend's add.
  constexpr u64 kSNaN = 0x7FF0'0000'0000'0001ull;
  constexpr u64 kQNaNNeg = 0xFFF8'0000'0000'BEEFull;
  constexpr u64 kQNaN = 0x7FF8'0000'0000'CAFEull;
  const u64 big = fp::to_bits(1.7e308), one = fp::to_bits(1.0);
  std::vector<std::vector<u64>> sets;
  std::vector<u64> overflow(3 * fp::kAdderStages, one);
  for (std::size_t j = 0; j < overflow.size(); j += fp::kAdderStages) {
    overflow[j] = big;                        // slot 0 -> +inf
    overflow[j + 1] = big | fp::kSignMask;    // slot 1 -> -inf
  }
  sets.push_back(overflow);
  std::vector<u64> nans(40, one);
  nans[3] = kSNaN;
  nans[17] = kQNaNNeg;
  nans[20] = kQNaN;
  nans[33] = kSNaN | fp::kSignMask;
  sets.push_back(nans);
  sets.push_back({kSNaN});
  sets.push_back({kQNaN, kQNaNNeg});
  sets.push_back(std::vector<u64>(20, one));  // finite between them
  sets.push_back({big, big, fp::kNegInf, one, one});

  std::vector<u64> per_backend[2];
  for (const auto kind : {fp::BackendKind::Soft, fp::BackendKind::Native}) {
    fp::ScopedBackend scoped(kind);
    sim::ScheduleSlot slot;
    const std::vector<u64> want = record(slot, sets);
    EXPECT_TRUE(fp::is_nan(want[0])) << "the infinities meet";
    EXPECT_EQ(want[2], kSNaN) << "a lone input is never added";
    expect_block_split_invisible(*slot.get(), want, raw_stage(sets),
                                 std::string(fp::backend_name(kind)));
    per_backend[kind == fp::BackendKind::Native] = want;
  }
  EXPECT_EQ(per_backend[0], per_backend[1]);
}

namespace {

/// Record a rows x cols tree GEMV on `record_a`, then run `a` (same shape)
/// twice: replayed from the schedule and freshly simulated. Returns the
/// replayed run's schedule, which `slot` holds.
const sim::Schedule& replay_and_simulate(sim::ScheduleSlot& slot,
                                         const std::vector<double>& record_a,
                                         const std::vector<double>& a,
                                         std::size_t rows, std::size_t cols,
                                         const std::vector<double>& x,
                                         std::vector<double>& replayed,
                                         std::vector<double>& simulated) {
  blas2::MxvTreeConfig cfg;
  cfg.schedule = &slot;
  blas2::MxvTreeEngine(cfg).run(record_a, rows, cols, x);
  replayed = blas2::MxvTreeEngine(cfg).run(a, rows, cols, x).y;
  EXPECT_EQ(slot.replays(), 1u);
  simulated = blas2::MxvTreeEngine(blas2::MxvTreeConfig{}).run(a, rows, cols, x).y;
  return *slot.get();
}

/// The longest run of sets sharing a program.
std::size_t longest_program_run(const sim::Schedule& s) {
  std::size_t longest = 0;
  for (const auto& run : s.program_runs) longest = std::max(longest, run.second);
  return longest;
}

void expect_same_bits(const std::vector<double>& want,
                      const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fp::to_bits(got[i]), fp::to_bits(want[i])) << what << ", set " << i;
  }
}

}  // namespace

TEST(ValueOpLog, LanesMatchSimulationForEverySetCount) {
  // 1, 7 and 8 rows run one set at a time (no run of 8 shares a program);
  // 9 and 29 rows run full chunks of kLanes sets plus a width-1 tail.
  Rng rng(2823);
  const std::size_t cols = 53;
  for (const auto kind : {fp::BackendKind::Soft, fp::BackendKind::Native}) {
    fp::ScopedBackend scoped(kind);
    for (const std::size_t rows : {1u, 7u, 8u, 9u, 29u}) {
      const std::string what = cat(fp::backend_name(kind), " ", rows, " rows");
      const auto a = rng.matrix(rows, cols);
      const auto x = rng.vector(cols);
      sim::ScheduleSlot slot;
      std::vector<double> replayed, simulated;
      const sim::Schedule& s = replay_and_simulate(
          slot, rng.matrix(rows, cols), a, rows, cols, x, replayed, simulated);
      expect_same_bits(simulated, replayed, what);
      if (rows > sim::kLanes) {
        EXPECT_GE(longest_program_run(s), sim::kLanes) << what;
      }
    }
  }
}

TEST(ValueOpLog, AlternatingProgramsRunOneSetAtATime) {
  // A dot batch whose pair lengths alternate: every program run is one set
  // long, and the batch still replays to the circuit's bits.
  Rng rng(2824);
  std::vector<std::vector<double>> us, vs, us2, vs2;
  for (std::size_t i = 0; i < 24; ++i) {
    const std::size_t len = i % 2 ? 13 : 70;
    us.push_back(rng.vector(len));
    vs.push_back(rng.vector(len));
    us2.push_back(rng.vector(len));
    vs2.push_back(rng.vector(len));
  }
  for (const auto kind : {fp::BackendKind::Soft, fp::BackendKind::Native}) {
    fp::ScopedBackend scoped(kind);
    sim::ScheduleSlot slot;
    blas1::DotConfig cfg;
    cfg.schedule = &slot;
    blas1::DotEngine(cfg).run(us, vs);
    const auto replayed = blas1::DotEngine(cfg).run(us2, vs2).results;
    EXPECT_EQ(slot.replays(), 1u);
    const auto simulated = blas1::DotEngine(blas1::DotConfig{}).run(us2, vs2).results;
    expect_same_bits(simulated, replayed, std::string(fp::backend_name(kind)));
    EXPECT_LT(longest_program_run(*slot.get()), sim::kLanes);
    EXPECT_GE(slot.get()->program_runs.size(), us.size() / 2);
  }
}

TEST(ValueOpLog, NonFiniteLaneLeavesTheOtherLanesBits) {
  // One lane of a chunk meets NaNs, lanes of another chunk an infinity and
  // opposite infinities (the default NaN); every other lane of those chunks
  // is finite. Under the native backend those chunks are redone
  // through the backend's add; every row must still be the circuit's.
  Rng rng(2825);
  const std::size_t rows = 29, cols = 53;
  const auto clean = rng.matrix(rows, cols);
  const auto x = rng.vector(cols);
  auto a = clean;
  // Chunk 1, lane 2: NaNs of three payloads meet, so the payload that
  // survives shows the order of every add they pass through.
  a[10 * cols + 5] = fp::from_bits(0xFFF8'0000'0000'BEEFull);
  a[10 * cols + 30] = fp::from_bits(0x7FF8'0000'0000'CAFEull);
  a[10 * cols + 47] = fp::from_bits(0xFFF0'0000'0000'0001ull);
  const double inf = std::numeric_limits<double>::infinity();
  a[17 * cols + 40] = std::copysign(inf, x[40]);  // chunk 2, lane 1: +inf
  a[20 * cols + 0] = std::copysign(inf, x[0]);  // chunk 2, lane 4: +inf - inf
  a[20 * cols + 52] = std::copysign(inf, -x[52]);
  a[27 * cols + 3] = fp::from_bits(0x7FF0'0000'0000'0001ull);  // the width-1 tail
  for (const auto kind : {fp::BackendKind::Soft, fp::BackendKind::Native}) {
    fp::ScopedBackend scoped(kind);
    sim::ScheduleSlot slot;
    std::vector<double> replayed, simulated;
    const sim::Schedule& s =
        replay_and_simulate(slot, clean, a, rows, cols, x, replayed, simulated);
    ASSERT_EQ(s.program_runs.front().second, 28u) << "rows 0-27 share a program";
    expect_same_bits(simulated, replayed, std::string(fp::backend_name(kind)));
    EXPECT_TRUE(std::isnan(replayed[10]));
    EXPECT_TRUE(std::isinf(replayed[17]));
    EXPECT_TRUE(std::isnan(replayed[20]));
    for (const std::size_t row : {8u, 9u, 11u, 15u, 16u, 18u, 23u}) {
      EXPECT_TRUE(std::isfinite(replayed[row])) << "row " << row;
    }
  }
}

TEST(ValueOpLog, ReplayRejectsAStreamItWasNotRecordedFor) {
  // Replay checks only the op's set count; the recorder rejects a bad log
  // once, when it publishes.
  namespace vo = reduce::value_op;
  const std::vector<u32> good = {vo::encode(vo::Direct, 0), vo::encode(vo::Direct, 1),
                                 vo::encode(vo::Drain, 0, 1),
                                 vo::encode(vo::Emit, 0, vo::kEmitBias)};
  sim::ScheduleSlot slot;
  publish_log(slot, good, {2});
  ASSERT_NE(slot.get(), nullptr);
  sim::TreeScratch scratch(sim::mac_reduce_key(1, fp::kAdderStages,
                                               fp::kMultiplierStages));
  const std::vector<std::vector<u64>> in = {{fp::to_bits(1.0), fp::to_bits(2.0)}};
  std::vector<double> out(1);
  sim::replay(*slot.get(), scratch, out, raw_stage(in));
  EXPECT_EQ(out[0], 3.0);
  // An op with another number of sets than the recorded one.
  std::vector<double> two(2);
  EXPECT_THROW(sim::replay(*slot.get(), scratch, two, raw_stage(in)), SimError);

  const auto rejects = [](std::vector<u32> ops, std::vector<std::size_t> lens) {
    sim::ScheduleSlot fresh;
    EXPECT_THROW(publish_log(fresh, std::move(ops), lens), SimError);
    EXPECT_EQ(fresh.get(), nullptr);
    EXPECT_TRUE(fresh.claim()) << "a rejected log leaves the slot claimable";
  };
  // Fewer inputs consumed than the set shape stages.
  rejects(good, {3});
  // A set emitted twice.
  std::vector<u32> twice = good;
  twice.push_back(vo::encode(vo::Emit, 0, vo::kEmitBias - 1));
  rejects(twice, {2});
  // A set never emitted.
  rejects({good.begin(), good.end() - 1}, {2});
}

TEST(ValueOpLog, PublishRejectsOpsThatCrossSets) {
  namespace vo = reduce::value_op;
  const auto rejects = [](std::vector<u32> ops, std::vector<std::size_t> lens,
                          const char* what) {
    sim::ScheduleSlot slot;
    EXPECT_THROW(publish_log(slot, std::move(ops), lens), SimError) << what;
    EXPECT_EQ(slot.get(), nullptr) << what;
  };
  // A Drain that pairs set 0's register with set 1's.
  rejects({vo::encode(vo::Direct, 0), vo::encode(vo::Direct, 1),
           vo::encode(vo::Drain, 0, 1), vo::encode(vo::Emit, 0, vo::kEmitBias),
           vo::encode(vo::Emit, 1, vo::kEmitBias)},
          {1, 1}, "drain across sets");
  // Set 0 has no Emit; set 1 emits.
  rejects({vo::encode(vo::Direct, 0), vo::encode(vo::Direct, 1),
           vo::encode(vo::Emit, 1, vo::kEmitBias + 1)},
          {1, 1}, "set without an emit");
  // A Fold into a register set 0 still holds.
  rejects({vo::encode(vo::Direct, 0), vo::encode(vo::Fold, 0),
           vo::encode(vo::Emit, 0, vo::kEmitBias),
           vo::encode(vo::Emit, 0, vo::kEmitBias)},
          {1, 1}, "fold across sets");
  // An Emit of set 1 reading set 0's register.
  rejects({vo::encode(vo::Direct, 0), vo::encode(vo::Direct, 1),
           vo::encode(vo::Emit, 1, vo::kEmitBias),
           vo::encode(vo::Emit, 0, vo::kEmitBias)},
          {1, 1}, "emit of another set's register");
  // Ops of a set after its Emit.
  rejects({vo::encode(vo::Direct, 0), vo::encode(vo::Emit, 0, vo::kEmitBias),
           vo::encode(vo::Fold, 0)},
          {2}, "op after emit");
  // A register outside both buffers.
  rejects({vo::encode(vo::Direct, 2 * fp::kAdderStages * fp::kAdderStages),
           vo::encode(vo::Emit, 0, vo::kEmitBias)},
          {1}, "register out of range");
}
