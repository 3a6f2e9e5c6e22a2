#include "reduce/reduction_circuit.hpp"

#include <algorithm>
#include <bit>

#include "telemetry/metrics.hpp"

namespace xd::reduce {

// --- Row helpers -----------------------------------------------------------

void ReductionCircuit::Row::reset() {
  set_id = 0;
  in_use = false;
  complete = false;
  direct_fill = 0;
  merge_ptr = 0;
  occupied_bits = 0;
  inflight_bits = 0;
  // `values` keeps its storage; stale words are unreachable once the bitmaps
  // are cleared.
}

void ReductionCircuit::Buffer::refresh(unsigned r) {
  const Row& row = rows[r];
  const u64 bit = u64{1} << r;
  const u64 avail = row.occupied_bits & ~row.inflight_bits;
  if (row.in_use && (avail & (avail - 1)) != 0) {
    drainable_rows |= bit;
  } else {
    drainable_rows &= ~bit;
  }
  if (row.in_use && row.complete && row.inflight_bits == 0 &&
      std::has_single_bit(row.occupied_bits)) {
    ready_rows |= bit;
  } else {
    ready_rows &= ~bit;
  }
}

// --- tags -----------------------------------------------------------------

u64 ReductionCircuit::make_tag(unsigned buf, unsigned row, unsigned slot) {
  return (static_cast<u64>(buf) << 32) | (static_cast<u64>(row) << 16) |
         static_cast<u64>(slot);
}

void ReductionCircuit::split_tag(u64 tag, unsigned& buf, unsigned& row,
                                 unsigned& slot) {
  buf = static_cast<unsigned>(tag >> 32);
  row = static_cast<unsigned>((tag >> 16) & 0xFFFF);
  slot = static_cast<unsigned>(tag & 0xFFFF);
}

// --- construction ----------------------------------------------------------

ReductionCircuit::ReductionCircuit(unsigned adder_stages, bool dedicated_drain_adder)
    : alpha_(adder_stages), adder_(adder_stages) {
  require(adder_stages >= 2, "reduction circuit assumes a pipelined adder (alpha >= 2)");
  require(adder_stages <= 64,
          "reduction circuit tracks row slots in 64-bit occupancy maps (alpha <= 64)");
  if (dedicated_drain_adder) {
    drain_adder_ = std::make_unique<fp::PipelinedAdder>(adder_stages);
  }
  for (auto& b : bufs_) {
    b.rows.resize(alpha_);
    for (auto& r : b.rows) r.values.resize(alpha_);
  }
}

void ReductionCircuit::reset_for_reuse() {
  adder_.reset();
  if (drain_adder_) drain_adder_->reset();
  for (auto& b : bufs_) {
    for (auto& r : b.rows) r.reset();
    b.rows_used = 0;
    b.rows_active = 0;
    b.words = 0;
    b.drainable_rows = 0;
    b.ready_rows = 0;
  }
  in_idx_ = 0;
  next_set_id_ = 0;
  cur_row_open_ = false;
  cur_row_ = 0;
  drain_rr_ = 0;
  adder_issued_ = false;
  cycles_ = 0;
  stats_ = ReductionStats{};
  out_queue_.clear();
  trace_ = nullptr;
  log_ = nullptr;
}

double ReductionCircuit::adder_utilization() const {
  if (!drain_adder_) return adder_.utilization();
  return (adder_.utilization() + drain_adder_->utilization()) / 2.0;
}

// --- per-cycle operation -----------------------------------------------------

bool ReductionCircuit::cycle(std::optional<Input> in) {
  ++cycles_;
  adder_issued_ = false;

  adder_.tick();
  if (auto r = adder_.take_output()) handle_writeback(*r);
  if (drain_adder_) {
    drain_adder_->tick();
    if (auto r = drain_adder_->take_output()) handle_writeback(*r);
  }

  bool consumed = false;
  if (in.has_value()) {
    consumed = accept_input(*in);
    if (!consumed) {
      ++stats_.stall_cycles;
      if (trace_ && trace_->enabled()) {
        trace_->emit(cycles_, "reduction", "stall: Buf_red draining");
      }
    }
  } else if (!cur_row_open_ && bufs_[in_idx_].rows_used > 0) {
    // Stream pause / flush: if the previous batch has fully drained, rotate
    // the partially-filled Buf_in into the drain role so trailing sets finish
    // without waiting for the buffer to fill.
    try_swap();
  }

  issue_drain_if_free();
  scan_for_finals();

  stats_.peak_buffer_words =
      std::max({stats_.peak_buffer_words, bufs_[0].words, bufs_[1].words});
  stats_.peak_out_queue = std::max(stats_.peak_out_queue, out_queue_.size());
  return consumed;
}

void ReductionCircuit::handle_writeback(const fp::FpResult& r) {
  unsigned buf, row, slot;
  split_tag(r.tag, buf, row, slot);
  Row& target = bufs_[buf].rows[row];
  const u64 bit = u64{1} << slot;
  if (!(target.inflight_bits & bit)) {
    throw SimError("reduction circuit: write-back to a slot that is not in flight");
  }
  target.values[slot] = r.bits;
  target.inflight_bits &= ~bit;
  // The slot stayed occupied while the result was in flight.
  bufs_[buf].refresh(row);
}

bool ReductionCircuit::try_swap() {
  Buffer& red = bufs_[1 - in_idx_];
  if (!red.fully_drained()) return false;
  // The outgoing Buf_in may still have fold write-backs in flight; they are
  // tagged with the physical buffer index and land correctly after the swap.
  if (trace_ && trace_->enabled()) {
    trace_->emit(cycles_, "reduction",
                 cat("swap: buffer ", in_idx_, " -> Buf_red (",
                     bufs_[in_idx_].rows_used, " rows)"));
  }
  in_idx_ = 1 - in_idx_;
  Buffer& fresh_in = bufs_[in_idx_];
  for (auto& row : fresh_in.rows) row.reset();
  fresh_in.rows_used = 0;
  fresh_in.rows_active = 0;
  fresh_in.words = 0;
  fresh_in.drainable_rows = 0;
  fresh_in.ready_rows = 0;
  drain_rr_ = 0;
  ++stats_.swaps;
  return true;
}

bool ReductionCircuit::accept_input(const Input& in) {
  Buffer* bin = &bufs_[in_idx_];
  if (!cur_row_open_) {
    if (bin->rows_used == alpha_) {
      if (!try_swap()) return false;  // stall: previous batch still draining
      bin = &bufs_[in_idx_];
    }
    cur_row_ = bin->rows_used++;
    ++bin->rows_active;
    Row& row = bin->rows[cur_row_];
    row.in_use = true;
    row.set_id = next_set_id_++;
    row.complete = false;
    row.direct_fill = 0;
    row.merge_ptr = 0;
    cur_row_open_ = true;
  }

  Row& row = bin->rows[cur_row_];
  if (row.direct_fill < alpha_) {
    // Direct write; the adder stays free for the drain path this cycle.
    const unsigned slot = row.direct_fill++;
    row.values[slot] = in.bits;
    row.occupied_bits |= u64{1} << slot;
    ++bin->words;
    if (log_) {
      log_->push_back(
          value_op::encode(value_op::Direct, reg(in_idx_, cur_row_, slot)));
    }
  } else {
    // Fold path: combine the new element with slot (merge_ptr mod alpha).
    // The slot was last targeted alpha inputs (= alpha cycles) ago, so its
    // write-back has completed; anything else is a genuine RAW hazard.
    const u64 bit = u64{1} << row.merge_ptr;
    if ((row.inflight_bits & bit) || !(row.occupied_bits & bit)) {
      throw SimError("reduction circuit: fold path read-after-write hazard");
    }
    adder_.issue(in.bits, row.values[row.merge_ptr],
                 make_tag(in_idx_, cur_row_, row.merge_ptr));
    row.inflight_bits |= bit;
    adder_issued_ = true;
    if (log_) {
      log_->push_back(
          value_op::encode(value_op::Fold, reg(in_idx_, cur_row_, row.merge_ptr)));
    }
    if (++row.merge_ptr == alpha_) row.merge_ptr = 0;
  }
  if (in.last) {
    row.complete = true;
    cur_row_open_ = false;
  }
  bin->refresh(cur_row_);
  ++stats_.inputs;
  return true;
}

void ReductionCircuit::issue_drain_if_free() {
  // In two-adder mode the drain path owns its adder and never contends with
  // the input fold path.
  if (!drain_adder_ && adder_issued_) return;
  Buffer& red = bufs_[1 - in_idx_];
  // Rows with >= 2 available values, cyclic-first-match from drain_rr_ — the
  // same row the old round-robin probe loop would have picked. Rows still
  // filling via fold write-backs or down to their final value have their
  // drainable bit clear; rows with pending elements of an incomplete set
  // cannot exist in Buf_red (a set spans exactly one row, rows move at swap).
  if (red.drainable_rows == 0) return;
  fp::PipelinedAdder& drain = drain_adder_ ? *drain_adder_ : adder_;
  const u64 from_rr = red.drainable_rows >> drain_rr_;
  const unsigned ri = static_cast<unsigned>(
      from_rr != 0 ? drain_rr_ + std::countr_zero(from_rr)
                   : std::countr_zero(red.drainable_rows));
  Row& row = red.rows[ri];
  // The two lowest-index available values (occupied, not awaiting a
  // write-back) — the same pair the old slot scan used to pick.
  const u64 avail = row.occupied_bits & ~row.inflight_bits;
  const u64 rest = avail & (avail - 1);
  const unsigned first = static_cast<unsigned>(std::countr_zero(avail));
  const unsigned second = static_cast<unsigned>(std::countr_zero(rest));
  drain.issue(row.values[first], row.values[second],
              make_tag(1 - in_idx_, ri, first));
  if (log_) {
    log_->push_back(value_op::encode(value_op::Drain, reg(1 - in_idx_, ri, first),
                                     reg(1 - in_idx_, ri, second)));
  }
  row.inflight_bits |= u64{1} << first;  // result lands back in `first`
  row.occupied_bits &= ~(u64{1} << second);
  --red.words;
  red.refresh(ri);
  if (!drain_adder_) adder_issued_ = true;
  drain_rr_ = ri + 1 == alpha_ ? 0 : ri + 1;
}

void ReductionCircuit::scan_for_finals() {
  // One memory write port: emit at most one completed set per cycle — the
  // lowest-index ready row, as the old row scan emitted.
  Buffer& red = bufs_[1 - in_idx_];
  if (red.ready_rows == 0) return;
  const unsigned ri = static_cast<unsigned>(std::countr_zero(red.ready_rows));
  Row& row = red.rows[ri];
  const unsigned slot = static_cast<unsigned>(std::countr_zero(row.occupied_bits));
  out_queue_.push_back(SetResult{row.set_id, row.values[slot]});
  if (log_) {
    const u64 rel = row.set_id + value_op::kEmitBias - stats_.sets_completed;
    if (rel > value_op::kFieldMask) {
      throw SimError("reduction circuit: emitted set out of the op log's range");
    }
    log_->push_back(value_op::encode(value_op::Emit, reg(1 - in_idx_, ri, slot),
                                     static_cast<u32>(rel)));
  }
  row.occupied_bits = 0;
  --red.words;
  row.in_use = false;
  --red.rows_active;
  red.refresh(ri);
  ++stats_.sets_completed;
  if (trace_ && trace_->enabled()) {
    trace_->emit(cycles_, "reduction", cat("emit: set ", row.set_id));
  }
}

std::optional<SetResult> ReductionCircuit::take_result() {
  if (out_queue_.empty()) return std::nullopt;
  SetResult r = out_queue_.front();
  out_queue_.pop_front();
  return r;
}

void ReductionCircuit::publish(telemetry::MetricsRegistry& reg,
                               std::string_view prefix) const {
  reg.counter(cat(prefix, ".inputs")).add(stats_.inputs);
  reg.counter(cat(prefix, ".sets_completed")).add(stats_.sets_completed);
  reg.counter(cat(prefix, ".stall_cycles")).add(stats_.stall_cycles);
  reg.counter(cat(prefix, ".swaps")).add(stats_.swaps);
  reg.counter(cat(prefix, ".cycles")).add(cycles_);
  reg.gauge(cat(prefix, ".peak_buffer_words"))
      .set(static_cast<double>(stats_.peak_buffer_words));
  reg.gauge(cat(prefix, ".adder_utilization")).set(adder_utilization());
}

bool ReductionCircuit::busy() const {
  if (adder_.busy() || !out_queue_.empty()) return true;
  if (drain_adder_ && drain_adder_->busy()) return true;
  return bufs_[0].rows_active != 0 || bufs_[1].rows_active != 0;
}

}  // namespace xd::reduce
