#include "mem/channel.hpp"

#include <algorithm>
#include <cmath>

#include "telemetry/metrics.hpp"

namespace xd::mem {

Channel::Channel(double words_per_cycle, std::string name, double burst_words)
    : rate_(words_per_cycle),
      // Default burst: one cycle's rate plus a two-word staging FIFO. The +2
      // keeps fractional rates lossless for integer-word consumers and lets
      // designs assemble small atomic groups (e.g. a lane group plus a
      // broadcast word) without banking idle bandwidth indefinitely.
      burst_(burst_words > 0.0 ? burst_words : words_per_cycle + 2.0),
      name_(std::move(name)) {
  if (!(words_per_cycle > 0.0))
    throw ConfigError(cat("channel ", name_, " needs positive rate"));
}

void Channel::throw_oversubscribed(double words) const {
  throw SimError(cat("channel ", name_, " over-subscribed: need ", words,
                     " credits, have ", credit_));
}

double Channel::utilization() const {
  const double offered = rate_ * static_cast<double>(cycles_);
  return offered > 0.0 ? transferred_ / offered : 0.0;
}

double Channel::achieved_bytes_per_s(double clock_hz) const {
  if (cycles_ == 0) return 0.0;
  const double words_per_cycle = transferred_ / static_cast<double>(cycles_);
  return words_per_cycle * static_cast<double>(kWordBytes) * clock_hz;
}

void Channel::publish(telemetry::MetricsRegistry& reg,
                      std::string_view prefix) const {
  reg.counter(cat(prefix, ".words")).add(static_cast<u64>(transferred_));
  reg.counter(cat(prefix, ".cycles")).add(cycles_);
  reg.gauge(cat(prefix, ".rate_words_per_cycle")).set(rate_);
  reg.gauge(cat(prefix, ".utilization")).set(utilization());
}

void Channel::reset_counters() {
  cycles_ = 0;
  transferred_ = 0.0;
  credit_ = 0.0;
}

}  // namespace xd::mem
