// Record once, replay many: the reduction schedule of a tree-engine plan.
//
// The Sec 4.3 reduction circuit decides when to write directly, fold, drain,
// swap and emit from set sizes and arrival timing alone, and arrival timing
// depends only on k, the pipeline depths and the memory rate. So for a
// fixed plan and fixed set lengths, every cycle count, every PerfReport
// field and the order of every FP add are the same on every run; only the
// values differ. The first run of a plan simulates with the circuit's op
// log on (ReductionCircuit::record_ops) and publishes a Schedule into the
// plan's ScheduleSlot.
//
// The circuit never adds values of two sets together, so publishing
// reorders the log set-major: set i's ops, in their issue order, then set
// i+1's. Every register read still sees the last write of its own set, so
// the reordered log runs to the same bits. Publishing checks this once per
// schedule (each set's ops consume exactly that set's inputs, no Drain or
// Emit reaches another set's register, each set ends in its one Emit), and
// the published schedule is immutable.
//
// Later runs replay it in blocks of whole sets. The op is split into
// min(pool size, ops / kMinBlockOps) contiguous blocks, and each block, on
// parallel_for, runs two phases:
//
//   1. the engine's stage callable builds the block's slice of the circuit's
//      input stream (the adder-tree outputs) with fp::Backend::mac_groups,
//      straight from the operands;
//   2. replay_sets runs the block's ops on a register file of its own, with
//      plain host adds under the native backend (a block that produces a
//      non-finite value is redone through the backend's add) and with
//      fp::add under softfloat, operands in their recorded order.
//
// Each set computes identically in any block, so the split never changes a
// bit, and replay is bit-identical to simulation under either FP backend.
// The simulator stays the oracle: the fuzz harness checks replay against
// fresh simulation on fresh operands. A run with the event trace on always
// simulates (replay emits no events), as does any engine built without a
// slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/util.hpp"
#include "sim/scratch.hpp"
#include "telemetry/metrics.hpp"

namespace xd::sim {

/// What one simulated run of a plan produced that its operand values cannot
/// change.
struct Schedule {
  /// Elements per set, run-length coded as (length, sets): the op log is
  /// valid only for this sequence. Dot batches of one plan may differ here.
  std::vector<std::pair<std::size_t, std::size_t>> set_runs;
  /// reduce::value_op codes, set-major once published: set i's ops are
  /// ops[op_first[i], op_first[i+1]) in issue order, the last its Emit.
  /// While recording, the circuit's interleaved log.
  std::vector<u32> ops;
  std::vector<std::size_t> op_first;  ///< sets + 1 offsets into ops
  /// sets + 1 offsets: set i consumes inputs [input_first[i], input_first[i+1]).
  std::vector<std::size_t> input_first;
  std::size_t inputs = 0;  ///< adder-tree outputs the ops consume
  std::size_t sets = 0;
  std::size_t registers = 0;  ///< both circuit buffers, 2 alpha^2 slots
  u64 cycles = 0;
  u64 stall_cycles = 0;
  u64 streamed_words = 0;  ///< operand words the feeder streamed
  /// The datapath's counters and gauges as the run published them; a
  /// replayed run merges this instead of publishing live units.
  telemetry::MetricsRegistry fragment;

  /// True when `sets` sets of len_of(i) elements are the recorded ones.
  template <typename LenOf>
  bool matches(std::size_t n, LenOf&& len_of) const {
    if (n != sets) return false;
    std::size_t i = 0;
    for (const auto& [len, count] : set_runs) {
      for (const std::size_t end = i + count; i < end; ++i) {
        if (len_of(i) != len) return false;
      }
    }
    return true;
  }

  /// Record the set lengths and the input counts at k lanes.
  template <typename LenOf>
  void set_shape(std::size_t n, LenOf&& len_of, unsigned k) {
    sets = n;
    inputs = 0;
    input_first.clear();
    input_first.reserve(n + 1);
    input_first.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len = len_of(i);
      inputs += (len + k - 1) / k;
      input_first.push_back(inputs);
      if (!set_runs.empty() && set_runs.back().first == len) {
        ++set_runs.back().second;
      } else {
        set_runs.emplace_back(len, 1);
      }
    }
  }

  /// Bytes this schedule holds: the object, the op log, its two offset
  /// tables, the set lengths and the fragment's metrics (not the map nodes'
  /// own overhead).
  std::size_t bytes() const;
};

/// A plan's schedule, published once. The first run that finds the slot
/// empty claims it and records; concurrent first runs simulate without
/// recording. Readers see either nothing or the complete schedule.
class ScheduleSlot {
 public:
  const Schedule* get() const { return published_.load(std::memory_order_acquire); }

  /// True for exactly one caller until abandon(): that caller records.
  bool claim() { return !claimed_.exchange(true, std::memory_order_acq_rel); }
  /// The claimer hands over a finished schedule.
  void publish(std::unique_ptr<Schedule> s);
  /// The claimer's run failed; a later run may record.
  void abandon() { claimed_.store(false, std::memory_order_release); }

  /// Runs that replayed this slot's schedule.
  u64 replays() const { return replays_.load(std::memory_order_relaxed); }
  void note_replay() { replays_.fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<bool> claimed_{false};
  std::unique_ptr<Schedule> owned_;  ///< written once, by the claimer
  std::atomic<const Schedule*> published_{nullptr};
  /// Written by every replay: kept off the line every run reads.
  alignas(64) std::atomic<u64> replays_{0};
};

/// The recording side of one simulated run on `scratch`: claims `slot` when
/// it is empty (and the tree is within fp::kMaxMacLanes), owns the schedule
/// being built, and abandons the claim unless publish() is reached.
class ScheduleRecorder {
 public:
  ScheduleRecorder(ScheduleSlot* slot, const TreeScratch& scratch);
  ~ScheduleRecorder();
  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  /// The schedule under construction; null when this run does not record.
  Schedule* schedule() { return sched_.get(); }
  /// The op log to hand the reduction circuit (null when not recording).
  std::vector<u32>* log() { return sched_ ? &sched_->ops : nullptr; }
  /// Check the finished log against the set shape, reorder it set-major
  /// and publish it into the slot. Throws SimError when an op reads a
  /// register out of range or of another set, the ops overrun or leave
  /// inputs, a set is emitted twice or never, or a set has ops after its
  /// Emit.
  void publish();

 private:
  ScheduleSlot* slot_ = nullptr;
  std::unique_ptr<Schedule> sched_;
};

/// The published schedule a run may replay: `slot`'s, when there is one,
/// the run is not traced, and the op's set lengths match. Counts the replay.
template <typename LenOf>
const Schedule* replayable(ScheduleSlot* slot, bool traced,
                           std::size_t sets, LenOf&& len_of) {
  if (!slot || traced) return nullptr;
  const Schedule* s = slot->get();
  if (!s || !s->matches(sets, len_of)) return nullptr;
  slot->note_replay();
  return s;
}

/// Ops below which a replay block does not pay for waking a pool worker:
/// a 512x512 k=4 tree GEMV (72,704 ops) splits 4 ways on 4 workers, a
/// 192x192 one (~9.2k ops) replays on the calling thread.
inline constexpr std::size_t kMinBlockOps = 8192;

/// Blocks a replay of `s` splits into: min(pool size, ops / kMinBlockOps),
/// at least 1.
std::size_t replay_blocks(const Schedule& s);

/// First set of block b of `blocks`: the block boundaries fall on whole sets
/// near even shares of the op log (b == blocks gives s.sets).
std::size_t block_first_set(const Schedule& s, std::size_t b,
                            std::size_t blocks);

/// The block kernel: run sets [s0, s1) of `s` over their staged inputs `in`
/// (set s0's first input at in[0]) on the register file `reg` (s.registers
/// words, no prior contents needed), writing set i's sum to out[i - s0].
/// Allocates nothing.
void replay_sets(const Schedule& s, const u64* in, std::size_t s0,
                 std::size_t s1, double* out, u64* reg);

/// Replay `s` into out (one sum per set), staging into scratch.abits with
/// one register file per block in scratch.regs. stage(s0, s1, dst) writes
/// the inputs of sets [s0, s1) from dst on; blocks call it concurrently on
/// disjoint slices. Throws SimError unless out holds one slot per recorded
/// set. Allocates nothing once the scratch's buffers have grown, except
/// parallel_for's shared state when the op splits.
template <typename Stage>
void replay(const Schedule& s, TreeScratch& scratch, std::vector<double>& out,
            Stage&& stage) {
  if (out.size() != s.sets) {
    throw SimError("schedule replay: the op's sets are not the recorded ones");
  }
  const std::size_t blocks = replay_blocks(s);
  scratch.abits.resize(s.inputs);
  scratch.regs.resize(blocks * s.registers);
  parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t s0 = block_first_set(s, b, blocks);
        const std::size_t s1 = block_first_set(s, b + 1, blocks);
        u64* in = scratch.abits.data() + s.input_first[s0];
        stage(s0, s1, in);
        replay_sets(s, in, s0, s1, out.data() + s0,
                    scratch.regs.data() + b * s.registers);
      },
      static_cast<unsigned>(blocks));
}

}  // namespace xd::sim
