// The paper's proposed reduction circuit (Sec 4.3): ONE pipelined
// floating-point adder and two buffers of alpha^2 words each, reducing
// multiple sequentially-delivered input sets of arbitrary size.
//
// Architecture (Fig 6):
//  - alpha = adder pipeline depth. Each buffer is organized as alpha rows of
//    alpha slots; one row holds (partial sums of) one input set.
//  - Buf_in accepts the input stream. The first min(s_i, alpha) elements of a
//    set are written directly into its row (adder not needed); every further
//    element is folded into the row by the adder (new input + slot j, j
//    cycling mod alpha, result written back to slot j). Because slot j is
//    revisited exactly every alpha cycles, the write-back of the previous
//    fold has just completed: no read-after-write hazard, no stall.
//  - Buf_red holds the previous batch of alpha rows and is drained through
//    the same adder in the cycles the input path leaves it free (i.e. while
//    Buf_in is taking direct writes). Draining combines two available values
//    of a row per issue; issues from different rows interleave, which is the
//    paper's "read column by column" schedule. A row that reaches a single
//    value with its set complete emits that value as the set's sum.
//  - When Buf_in fills (alpha rows in use) and Buf_red has fully drained, the
//    two buffers swap roles. If Buf_red has not drained yet the input stream
//    must stall; the paper proves (in the unpublished report [29]) that for
//    the workloads of interest the drain always finishes in time, and this
//    implementation exposes stall_cycles() so tests can verify the claim
//    empirically (zero stalls for uniform set sizes >= alpha, and total
//    latency < sum(s_i) + 2*alpha^2).
//
// The numeric combination order is therefore NOT plain left-to-right
// summation; like the hardware, results are a correctly-rounded sum of a
// reassociated addition tree. That order is fixed by set sizes and arrival
// timing alone, never by the values, so the circuit can log it (value_op
// below) and sim/schedule.hpp replays the log bit for bit. Tests compare
// engines against the naive oracle within a tolerance (or bitwise on
// integer operands), and against the simulator bit for bit.
#pragma once

#include <bit>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "fp/fpu.hpp"
#include "reduce/reduction_iface.hpp"
#include "sim/trace.hpp"

namespace xd::telemetry {
class MetricsRegistry;
}

namespace xd::reduce {

/// The circuit's value operations in issue order, as a schedule recorder
/// logs them (ReductionCircuit::record_ops). An op is 32 bits: the kind in
/// the top two, then two 13-bit fields. Registers number every slot of both
/// buffers, (buffer * alpha + row) * alpha + slot < 2 * 64 * 64 = 2^13.
/// Each op reads its operands when the circuit issues it, and no slot is
/// read between an issue and its write-back, so running the ops in order,
/// each to completion, gives the circuit's exact bits.
namespace value_op {
enum Kind : u32 {
  Direct = 0,  ///< reg[a] = next input
  Fold = 1,    ///< reg[a] = add(next input, reg[a])
  Drain = 2,   ///< reg[a] = add(reg[a], reg[b])
  Emit = 3,    ///< reg[a] is the sum of set (sets emitted so far + b - kEmitBias)
};
inline constexpr unsigned kFieldBits = 13;
inline constexpr u32 kFieldMask = (u32{1} << kFieldBits) - 1;
/// An emitted set is named relative to the count already emitted: every set
/// still in the circuit lies within alpha of it.
inline constexpr u32 kEmitBias = u32{1} << (kFieldBits - 1);

constexpr u32 encode(Kind k, u32 a, u32 b = 0) {
  return (static_cast<u32>(k) << 30) | (b << kFieldBits) | a;
}
constexpr Kind kind(u32 op) { return static_cast<Kind>(op >> 30); }
constexpr u32 first(u32 op) { return op & kFieldMask; }
constexpr u32 second(u32 op) { return (op >> kFieldBits) & kFieldMask; }
}  // namespace value_op

struct ReductionStats {
  u64 inputs = 0;
  u64 sets_completed = 0;
  u64 stall_cycles = 0;
  u64 swaps = 0;
  std::size_t peak_buffer_words = 0;  ///< max simultaneously-occupied slots, one buffer
  std::size_t peak_out_queue = 0;
};

class ReductionCircuit final : public ReductionCircuitBase {
 public:
  /// `dedicated_drain_adder` instantiates a second adder for the Buf_red
  /// drain path (in the spirit of the two-adder designs of [19]); the
  /// proposed circuit shares one adder between the fold and drain paths.
  explicit ReductionCircuit(unsigned adder_stages = fp::kAdderStages,
                            bool dedicated_drain_adder = false);

  bool cycle(std::optional<Input> in) override;
  std::optional<SetResult> take_result() override;
  bool busy() const override;

  std::string name() const override {
    return drain_adder_ ? "two-adder-[19]-style" : "proposed-1adder";
  }
  unsigned adders_used() const override { return drain_adder_ ? 2 : 1; }
  std::size_t buffer_words() const override { return 2ull * alpha_ * alpha_; }
  u64 cycles() const override { return cycles_; }
  u64 stall_cycles() const override { return stats_.stall_cycles; }
  double adder_utilization() const override;

  unsigned alpha() const { return alpha_; }
  const ReductionStats& stats() const { return stats_; }

  /// Attach a trace sink; buffer swaps, input stalls and set completions are
  /// emitted (nullptr detaches). The trace must outlive the circuit's use.
  void attach_trace(sim::Trace* trace) { trace_ = trace; }

  /// Append every value operation from now on to `log` (see value_op);
  /// nullptr stops logging. The log must outlive the circuit's use.
  void record_ops(std::vector<u32>* log) { log_ = log; }

  /// Back to the just-constructed state, keeping every buffer's storage and
  /// detaching any trace and op log. The recycled engine-scratch path reuses one
  /// circuit across ops: construction allocates ~2*alpha row buffers, which
  /// dominated the per-op cost of tiny operations.
  void reset_for_reuse();

  /// Snapshot the circuit's counters into `reg` under `<prefix>.`: inputs,
  /// sets_completed, stall_cycles, swaps, cycles (counters) and
  /// peak_buffer_words / adder_utilization (gauges).
  void publish(telemetry::MetricsRegistry& reg, std::string_view prefix) const;

 private:
  struct Row {
    u64 set_id = 0;
    bool in_use = false;
    bool complete = false;     ///< last element of the set has arrived
    unsigned direct_fill = 0;  ///< elements written without the adder
    unsigned merge_ptr = 0;    ///< next slot for the fold path (mod alpha)
    // Slot state as bitmaps (alpha <= 64): bit i of occupied_bits means slot
    // i holds a value, bit i of inflight_bits means an adder result will
    // overwrite it (inflight slots stay occupied). The per-cycle scheduling
    // finds candidate slots with popcount/countr_zero instead of scanning.
    u64 occupied_bits = 0;
    u64 inflight_bits = 0;
    std::vector<u64> values;  ///< alpha slot values

    unsigned occupied_count() const {
      return static_cast<unsigned>(std::popcount(occupied_bits));
    }
    unsigned inflight_count() const {
      return static_cast<unsigned>(std::popcount(inflight_bits));
    }
    unsigned available_count() const {
      return static_cast<unsigned>(std::popcount(occupied_bits & ~inflight_bits));
    }
    bool drained() const { return occupied_bits == 0 && inflight_bits == 0; }
    void reset();  ///< back to empty, keeping the slot storage
  };
  struct Buffer {
    std::vector<Row> rows;
    unsigned rows_used = 0;    ///< rows handed to input sets since the swap
    unsigned rows_active = 0;  ///< rows whose set has not been emitted yet
    std::size_t words = 0;     ///< currently-occupied slots across all rows
    // Per-row scheduling state, refreshed at every row mutation so the
    // per-cycle drain/emit decisions are bit scans instead of row loops:
    // bit r of drainable_rows = row r has >= 2 available values; bit r of
    // ready_rows = row r is down to its completed set's final value.
    u64 drainable_rows = 0;
    u64 ready_rows = 0;

    bool fully_drained() const { return rows_active == 0; }
    /// Recompute row r's drainable/ready bits from its current state.
    void refresh(unsigned r);
  };

  // Tag layout for adder operations: buffer index, row, slot.
  static u64 make_tag(unsigned buf, unsigned row, unsigned slot);
  static void split_tag(u64 tag, unsigned& buf, unsigned& row, unsigned& slot);
  /// value_op register of a slot.
  u32 reg(unsigned buf, unsigned row, unsigned slot) const {
    return (buf * alpha_ + row) * alpha_ + slot;
  }

  void handle_writeback(const fp::FpResult& r);
  bool try_swap();
  bool accept_input(const Input& in);
  void issue_drain_if_free();
  void scan_for_finals();

  unsigned alpha_;
  fp::PipelinedAdder adder_;
  std::unique_ptr<fp::PipelinedAdder> drain_adder_;  ///< only in two-adder mode
  Buffer bufs_[2];
  unsigned in_idx_ = 0;   ///< which buffer is Buf_in
  u64 next_set_id_ = 0;
  bool cur_row_open_ = false;  ///< current set still filling a row
  unsigned cur_row_ = 0;
  unsigned drain_rr_ = 0;  ///< round-robin row cursor for the drain schedule
  bool adder_issued_ = false;
  u64 cycles_ = 0;
  ReductionStats stats_;
  std::deque<SetResult> out_queue_;
  sim::Trace* trace_ = nullptr;
  std::vector<u32>* log_ = nullptr;
};

}  // namespace xd::reduce
