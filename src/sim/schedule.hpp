// Record once, replay many: the reduction schedule of a tree-engine plan.
//
// The Sec 4.3 reduction circuit decides when to write directly, fold, drain,
// swap and emit from set sizes and arrival timing alone, and arrival timing
// depends only on k, the pipeline depths and the memory rate. So for a
// fixed plan and fixed set lengths, every cycle count, every PerfReport
// field and the order of every FP add are the same on every run; only the
// values differ. The first run of a plan simulates with the circuit's op
// log on (ReductionCircuit::record_ops) and publishes a Schedule into the
// plan's ScheduleSlot. Later runs replay it in two phases:
//
//   1. fp::Backend::mac_groups builds the circuit's input stream (the
//      adder-tree outputs) straight from the operands;
//   2. the logged value ops run through the backend's add, operands in
//      their recorded order.
//
// Both phases call the active backend, so replay is bit-identical to
// simulation under either FP backend, and the simulator stays the oracle:
// the fuzz harness checks replay against fresh simulation on fresh operands.
// A run with the event trace on always simulates (replay emits no events),
// as does any engine built without a slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/util.hpp"
#include "telemetry/metrics.hpp"

namespace xd::sim {

struct TreeScratch;

/// What one simulated run of a plan produced that its operand values cannot
/// change.
struct Schedule {
  /// Elements per set, run-length coded as (length, sets): the op log is
  /// valid only for this sequence. Dot batches of one plan may differ here.
  std::vector<std::pair<std::size_t, std::size_t>> set_runs;
  std::vector<u32> ops;    ///< reduce::value_op codes in issue order
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

  /// Record the set lengths and the input count at k lanes.
  template <typename LenOf>
  void set_shape(std::size_t n, LenOf&& len_of, unsigned k) {
    sets = n;
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

  /// Bytes this schedule holds: the object, the op log, the set lengths and
  /// the fragment's metrics (not the map nodes' own overhead).
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
  /// Check the finished schedule and publish it into the slot.
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

/// Phase 2 of a replay: run `s`'s ops over the `staged` adder-tree outputs
/// in scratch.abits with the active backend's add, writing set i's sum to
/// out[i]. Throws SimError unless the ops consume exactly the staged inputs
/// and emit every set exactly once. Allocates nothing once the scratch's
/// buffers have grown.
void replay(const Schedule& s, TreeScratch& scratch, std::size_t staged,
            std::vector<double>& out);

}  // namespace xd::sim
