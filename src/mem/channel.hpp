// Bandwidth-throttled transfer channel.
//
// Links in the machine model (FPGA<->SRAM, FPGA<->DRAM over RapidArray,
// FPGA<->FPGA RocketIO, chassis<->chassis) are modeled as channels with a
// sustained word rate per FPGA clock cycle. Rates are usually fractional
// (e.g. 1.3 GB/s DRAM at a 164 MHz design clock is ~0.99 words/cycle), so the
// channel uses a credit accumulator: every cycle adds `rate` credits, a
// transfer of w words consumes w credits, and credits never accumulate beyond
// one cycle's burst capability (no infinite banking of idle bandwidth).
#pragma once

#include <string>
#include <string_view>

#include "common/util.hpp"

namespace xd::telemetry {
class MetricsRegistry;
}

namespace xd::mem {

class Channel {
 public:
  /// `words_per_cycle` is the sustained rate; `burst_words` caps how much
  /// credit can pool while idle (defaults to one cycle's ceiling).
  Channel(double words_per_cycle, std::string name, double burst_words = 0.0);

  /// Advance one clock cycle: accrue credit. Inline — engines call this every
  /// simulated cycle.
  void tick() {
    ++cycles_;
    credit_ = credit_ + rate_ < burst_ ? credit_ + rate_ : burst_;
  }

  /// Can `words` be transferred this cycle?
  bool can_transfer(double words = 1.0) const { return credit_ >= words; }

  /// Consume credit for `words`; throws SimError if unavailable (the caller
  /// must check can_transfer first — real designs gate issue on ready lines).
  void transfer(double words = 1.0) {
    if (credit_ < words) throw_oversubscribed(words);
    credit_ -= words;
    transferred_ += words;
  }

  /// Bulk accounting: `cycles` ticks during which `words` whole words
  /// crossed, in one step. The counters advance as the ticks and transfers
  /// would have moved them; the credit left is what those ticks accrued
  /// beyond the words, capped at the burst. The caller guarantees the ticks
  /// could carry the words (cycles * rate >= words).
  void advance(u64 cycles, double words) {
    cycles_ += cycles;
    transferred_ += words;
    const double left = credit_ + static_cast<double>(cycles) * rate_ - words;
    credit_ = left < 0.0 ? 0.0 : left < burst_ ? left : burst_;
  }

  double rate() const { return rate_; }
  u64 cycles() const { return cycles_; }
  double words_transferred() const { return transferred_; }
  /// Achieved utilization = transferred / (rate * cycles).
  double utilization() const;

  /// Convert an achieved word count into bytes/s given a clock in Hz.
  double achieved_bytes_per_s(double clock_hz) const;

  const std::string& name() const { return name_; }
  void reset_counters();

  /// Snapshot this channel's counters into `reg` under `<prefix>.`:
  /// words (counter), cycles (counter), rate_words_per_cycle (gauge),
  /// utilization (gauge). Counters accumulate across repeated publishes.
  void publish(telemetry::MetricsRegistry& reg, std::string_view prefix) const;

  /// Helper: convert a bandwidth in bytes/s at `clock_hz` into words/cycle.
  static double words_per_cycle_for(double bytes_per_s, double clock_hz) {
    return bytes_per_s / (static_cast<double>(kWordBytes) * clock_hz);
  }

 private:
  [[noreturn]] void throw_oversubscribed(double words) const;

  double rate_;
  double burst_;
  double credit_ = 0.0;
  std::string name_;
  u64 cycles_ = 0;
  double transferred_ = 0.0;
};

}  // namespace xd::mem
