#include "telemetry/span.hpp"

#include <algorithm>

namespace xd::telemetry {

void SpanRecorder::phase(std::string_view name, u64 cycles) {
  Span s;
  s.name = std::string(name);
  s.begin = cursor_;
  s.end = cursor_ + cycles;
  cursor_ = s.end;
  done_.push_back(std::move(s));
}

void SpanRecorder::merge_from(const SpanRecorder& other, unsigned lane) {
  const u64 offset = lane_cursor(lane);
  for (const Span& s : other.done_) {
    Span merged = s;
    merged.begin = offset + s.begin;
    merged.end = offset + s.end;
    merged.lane = lane;
    done_.push_back(std::move(merged));
  }
  const u64 advanced = offset + other.cursor_;
  if (lane == 0) {
    cursor_ = advanced;
  } else {
    if (lane_cursors_.size() < lane) lane_cursors_.resize(lane, 0);
    lane_cursors_[lane - 1] = advanced;
  }
}

u64 SpanRecorder::lane_cursor(unsigned lane) const {
  if (lane == 0) return cursor_;
  return lane <= lane_cursors_.size() ? lane_cursors_[lane - 1] : 0;
}

std::vector<Span> SpanRecorder::spans() const {
  std::vector<Span> out = done_;
  std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.lane < b.lane;
  });
  return out;
}

u64 SpanRecorder::total_cycles(std::string_view name) const {
  u64 total = 0;
  for (const auto& s : done_) {
    if (s.name == name) total += s.cycles();
  }
  return total;
}

void SpanRecorder::clear() {
  done_.clear();
  cursor_ = 0;
  lane_cursors_.clear();
}

}  // namespace xd::telemetry
