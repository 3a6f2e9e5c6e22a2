// Cycle-level event tracing.
//
// The paper's design flow debugs the VHDL in ModelSim; the simulator's
// equivalent observability is this trace: components emit timestamped events
// (buffer swaps, stalls, result emissions, hazards) into a bounded ring
// buffer that tests and tools can filter and render. Tracing is off by
// default and costs one branch per emit site when disabled: sites gate on
// enabled() (or a null sink pointer) before building any event text.
//
// The ring is a preallocated circular buffer of `capacity` slots; emitting
// into a previously used slot reuses its strings' storage, so a hot loop
// emitting short events settles into zero allocations per emit.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/util.hpp"

namespace xd::sim {

struct TraceEvent {
  u64 cycle = 0;
  std::string source;
  std::string what;
};

class Trace {
 public:
  /// Keep at most `capacity` most-recent events (circular buffer,
  /// preallocated up front).
  explicit Trace(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(capacity == 0 ? 1 : capacity) {}

  /// One-branch fast path for emit sites: skip event-text construction
  /// entirely when this is false.
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  void emit(u64 cycle, std::string_view source, std::string_view what) {
    if (!enabled_) return;
    TraceEvent& e = slots_[(head_ + size_) % capacity_];
    if (size_ < capacity_) {
      ++size_;
    } else {
      head_ = (head_ + 1) % capacity_;  // overwrote the oldest slot
    }
    e.cycle = cycle;
    // clear + append reuses the slot's string capacity. (assign would too,
    // but GCC 12 reports a false -Wrestrict through its inlined _M_replace.)
    e.source.clear();
    e.source.append(source);
    e.what.clear();
    e.what.append(what);
    ++total_;
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    for_each([&](const TraceEvent& e) { out.push_back(e); });
    return out;
  }

  /// Visit retained events oldest-first without copying.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) {
      fn(slots_[(head_ + i) % capacity_]);
    }
  }

  std::size_t size() const { return size_; }
  u64 total_emitted() const { return total_; }
  std::size_t capacity() const { return capacity_; }

  /// Events whose source contains `needle`.
  std::vector<TraceEvent> filter(std::string_view needle) const {
    std::vector<TraceEvent> out;
    for_each([&](const TraceEvent& e) {
      if (e.source.find(needle) != std::string::npos) out.push_back(e);
    });
    return out;
  }

  /// Count of retained events whose text contains `needle`.
  std::size_t count_containing(std::string_view needle) const {
    std::size_t n = 0;
    for_each([&](const TraceEvent& e) {
      if (e.what.find(needle) != std::string::npos) ++n;
    });
    return n;
  }

  /// "cycle  source  what" lines for the last `n` events.
  std::string render(std::size_t n = 64) const {
    std::string out;
    const std::size_t start = size_ > n ? size_ - n : 0;
    for (std::size_t i = start; i < size_; ++i) {
      const TraceEvent& e = slots_[(head_ + i) % capacity_];
      out += cat(e.cycle, "  ", e.source, "  ", e.what, "\n");
    }
    return out;
  }

  void clear() {
    head_ = size_ = 0;
    total_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> slots_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;  ///< retained events (<= capacity_)
  u64 total_ = 0;
  bool enabled_ = true;
};

}  // namespace xd::sim
