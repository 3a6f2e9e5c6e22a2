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
// The circuit never adds values of two sets together, and which adds it
// makes for a set depends only on that set's length and arrival timing, so
// the sets of one plan run very few distinct add sequences: a 512x512 k=4
// tree GEMV's 512 rows run 2. Publishing checks the log once per schedule
// (each set's ops consume exactly that set's inputs, no Drain or Emit
// reaches another set's register, each set ends in its one Emit), renames
// each set's registers by first use within the set, and interns the
// renamed op sequence as a Program. The published schedule keeps the
// programs and which program each run of sets runs, and is immutable.
// Every register read still sees the last write of its own set, so running
// each set's program on its own registers gives the circuit's exact bits.
//
// Later runs replay it in blocks of whole sets. The op is split into
// min(pool size, ops / kMinBlockOps) contiguous blocks on parallel_for, and
// each block walks its sets in chunks of kLanes consecutive sets that share
// a program (a shorter tail runs one set at a time):
//
//   1. the engine's stage callable builds the chunk's slice of the
//      circuit's input stream (the adder-tree outputs) with
//      fp::Backend::mac_groups, straight from the operands, into a small
//      per-block buffer;
//   2. the chunk's sets run their program together, lane by lane, on a
//      register file of the block's own, operands in their recorded order:
//      plain host adds under the native backend (a chunk that emits a
//      non-finite value is redone through the backend's add) and fp::add
//      under softfloat.
//
// Each set computes identically in any block and any lane, so neither the
// split nor the lanes change a bit, and replay is bit-identical to
// simulation under either FP backend. The simulator stays the oracle: the
// fuzz harness checks replay against fresh simulation on fresh operands. A
// run with the event trace on always simulates (replay emits no events), as
// does any engine built without a slot.
#pragma once

#include <algorithm>
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

/// Sets one replay pass runs together when they share a program.
inline constexpr std::size_t kLanes = 8;

/// One set's reduction as the circuit ran it, registers renamed by first
/// use within the set: reduce::value_op codes code[first, first + ops) of
/// the owning Schedule, each Direct or Fold consuming the set's next input,
/// the last op its one Emit (whose set field is unused).
struct Program {
  u32 first = 0;
  u32 ops = 0;
  u32 inputs = 0;     ///< Directs and Folds: the set's adder-tree outputs
  u32 registers = 0;  ///< renamed registers 0 .. registers - 1
};

/// What one simulated run of a plan produced that its operand values cannot
/// change.
struct Schedule {
  /// Elements per set, run-length coded as (length, sets): the programs
  /// are valid only for this sequence. Dot batches of one plan may differ
  /// here.
  std::vector<std::pair<std::size_t, std::size_t>> set_runs;
  /// The distinct programs once published, their ops in `code`.
  std::vector<Program> programs;
  std::vector<u32> code;
  /// Which program each set runs, run-length coded as (program, sets) in
  /// set order; a set's inputs follow those of the sets before it.
  std::vector<std::pair<u32, std::size_t>> program_runs;
  std::size_t inputs = 0;  ///< adder-tree outputs the sets consume
  std::size_t sets = 0;
  std::size_t ops = 0;  ///< ops over all sets: the replay's work
  unsigned k = 0;       ///< adder-tree lanes: a set of n elements has ceil(n / k) inputs
  std::size_t registers = 0;  ///< both circuit buffers, 2 alpha^2 slots
  /// A replay block's buffers: the widest chunk's staged inputs and the
  /// most registers a program renames to.
  std::size_t chunk_inputs = 0;
  std::size_t program_registers = 0;
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
  void set_shape(std::size_t n, LenOf&& len_of, unsigned lanes) {
    sets = n;
    k = lanes;
    inputs = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t len = len_of(i);
      inputs += (len + k - 1) / k;
      if (!set_runs.empty() && set_runs.back().first == len) {
        ++set_runs.back().second;
      } else {
        set_runs.emplace_back(len, 1);
      }
    }
  }

  /// Bytes this schedule holds: the object, the programs and their code,
  /// the program runs, the set lengths and the fragment's metrics (not the
  /// map nodes' own overhead).
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
/// being built and the circuit's op log, and abandons the claim unless
/// publish() is reached.
class ScheduleRecorder {
 public:
  ScheduleRecorder(ScheduleSlot* slot, const TreeScratch& scratch);
  ~ScheduleRecorder();
  ScheduleRecorder(const ScheduleRecorder&) = delete;
  ScheduleRecorder& operator=(const ScheduleRecorder&) = delete;

  /// The schedule under construction; null when this run does not record.
  Schedule* schedule() { return sched_.get(); }
  /// The op log to hand the reduction circuit (null when not recording):
  /// the circuit's ops in issue order, sets interleaved.
  std::vector<u32>* log() { return sched_ ? &log_ : nullptr; }
  /// Check the finished log against the set shape, intern each set's ops
  /// as a program and publish the schedule into the slot. Throws SimError
  /// when an op reads a register out of range or of another set, the ops
  /// overrun or leave inputs, a set is emitted twice or never, or a set has
  /// ops after its Emit.
  void publish();

 private:
  ScheduleSlot* slot_ = nullptr;
  std::unique_ptr<Schedule> sched_;
  std::vector<u32> log_;
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

/// Ops below which a replay block does not pay for waking a pool worker.
/// Staging and lane replay cost ~2 ns per op on one thread, and a split
/// costs a few microseconds per block: measured on 4 vCPUs, a 256x256 k=4
/// tree GEMV (19,968 ops) replays no faster in 2 blocks than in 1, a
/// 384x384 one (42,240 ops) ~1.5x faster in 3. So 512x512 (72,704 ops)
/// splits 4 ways on 4 workers, 384x384 3 ways, and 256x256 and the 192x192
/// GEMV shards replay on the calling thread.
inline constexpr std::size_t kMinBlockOps = 12288;

/// Blocks a replay of `s` splits into: min(pool size, ops / kMinBlockOps),
/// at least 1.
std::size_t replay_blocks(const Schedule& s);

/// First set of block b of `blocks`: the block boundaries fall on whole sets
/// near even shares of the ops, rounded up to whole chunks of their program
/// run (b == blocks gives s.sets).
std::size_t block_first_set(const Schedule& s, std::size_t b,
                            std::size_t blocks);

/// Run `p` for `lanes` (kLanes or 1) sets whose inputs lie set-major in
/// `in` (p.inputs each), writing their sums to out[0, lanes), on the
/// register file `reg` (p.registers * lanes words, no prior contents
/// needed). Allocates nothing.
void run_chunk(const Program& p, const u32* code, std::size_t lanes,
               const u64* in, double* out, u64* reg);

/// The block kernel: run sets [s0, s1) of `s`, writing set i's sum to
/// out[i - s0]. Each chunk of sets first has stage(c0, c1, in) write the
/// inputs of sets [c0, c1) into `in` (s.chunk_inputs words), then runs on
/// `reg` (s.program_registers * kLanes words). Allocates nothing.
template <typename Stage>
void replay_sets(const Schedule& s, std::size_t s0, std::size_t s1,
                 double* out, u64* in, u64* reg, Stage&& stage) {
  std::size_t first = 0;
  for (const auto& [program, count] : s.program_runs) {
    const std::size_t end = std::min(first + count, s1);
    const Program& p = s.programs[program];
    for (std::size_t i = std::max(first, s0); i < end;) {
      const std::size_t lanes = end - i >= kLanes ? kLanes : 1;
      stage(i, i + lanes, in);
      run_chunk(p, s.code.data(), lanes, in, out + (i - s0), reg);
      i += lanes;
    }
    first += count;
    if (first >= s1) break;
  }
}

/// Replay `s` into out (one sum per set), with one input buffer and one
/// register file per block in scratch.abits and scratch.regs. stage(c0,
/// c1, dst) writes the inputs of sets [c0, c1) from dst on; blocks call it
/// concurrently. Throws SimError unless out holds one slot per recorded
/// set. Allocates nothing once the scratch's buffers have grown, except
/// parallel_for's shared state when the op splits.
template <typename Stage>
void replay(const Schedule& s, TreeScratch& scratch, std::vector<double>& out,
            Stage&& stage) {
  if (out.size() != s.sets) {
    throw SimError("schedule replay: the op's sets are not the recorded ones");
  }
  const std::size_t blocks = replay_blocks(s);
  const std::size_t regs = s.program_registers * kLanes;
  scratch.abits.resize(blocks * s.chunk_inputs);
  scratch.regs.resize(blocks * regs);
  parallel_for(
      0, blocks,
      [&](std::size_t b) {
        const std::size_t s0 = block_first_set(s, b, blocks);
        replay_sets(s, s0, block_first_set(s, b + 1, blocks), out.data() + s0,
                    scratch.abits.data() + b * s.chunk_inputs,
                    scratch.regs.data() + b * regs, stage);
      },
      static_cast<unsigned>(blocks));
}

}  // namespace xd::sim
