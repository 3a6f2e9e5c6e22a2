// The per-run telemetry bundle: one metrics registry, one span recorder, one
// shared event-trace sink and one flight recorder, handed to engines as a
// single nullable pointer. A null Session* is the disabled state — every
// instrumentation site is gated on it, so a run without telemetry does no
// telemetry work beyond one pointer test per site.
//
//   telemetry::Session tel;
//   host::ContextConfig cfg;
//   cfg.telemetry = &tel;
//   host::Runtime rt(cfg);
//   rt.run(host::OpDesc::gemm(a, b, n));
//   std::string m = telemetry::metrics_to_json(tel.metrics());   // export
//   std::string t = telemetry::chrome_trace_json(tel, clock_mhz);
//
// Concurrency: the registry/recorder/trace members are not individually
// thread-safe; a Session shared across threads is synchronized through
// lock(). The runtime's synchronous path holds the lock for the duration of
// an op and records directly; pool workers record into a thread-local shard
// Session (no lock, no sharing) and fold it in at op completion with
// merge(), so concurrent submits observe full telemetry instead of running
// detached. The flight recorder has its own leaf mutex and may be used
// with or without the Session lock held.
#pragma once

#include <mutex>

#include "sim/trace.hpp"
#include "telemetry/flight.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace xd::telemetry {

class Session {
 public:
  explicit Session(std::size_t trace_capacity = 4096,
                   std::size_t flight_capacity = 256)
      : trace_(trace_capacity), flight_(flight_capacity) {
    // Event tracing is opt-in even when metrics/spans are on: emit sites
    // build strings, which the enabled() fast path avoids.
    trace_.set_enabled(false);
  }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  SpanRecorder& spans() { return spans_; }
  const SpanRecorder& spans() const { return spans_; }

  sim::Trace& trace() { return trace_; }
  const sim::Trace& trace() const { return trace_; }

  FlightRecorder& flight() { return flight_; }
  const FlightRecorder& flight() const { return flight_; }

  // Shorthands for the common registrations.
  Counter counter(std::string_view name) { return metrics_.counter(name); }
  Gauge gauge(std::string_view name) { return metrics_.gauge(name); }
  HistogramMetric histogram(std::string_view name) {
    return metrics_.histogram(name);
  }
  void phase(std::string_view name, u64 cycles) { spans_.phase(name, cycles); }

  /// Serializes recording and export on a shared Session. Writers that
  /// record directly (the runtime's synchronous path) and readers that
  /// export while jobs may still be in flight both take this.
  std::unique_lock<std::mutex> lock() {
    // Spin briefly before parking: pool workers hold the lock for about a
    // microsecond per completed op, far less than a sleep and wake-up takes
    // to hand it over.
    for (int i = 0; i < kLockSpins; ++i) {
      if (mu_.try_lock()) return std::unique_lock(mu_, std::adopt_lock);
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    return std::unique_lock(mu_);
  }

  /// Fold a worker shard into this session under the lock: metrics merge
  /// (counters add, histograms combine, gauges last-write-wins), completed
  /// spans land on `lane`'s timeline, and retained trace events re-emit into
  /// the shared sink (only when this session's tracing is enabled).
  void merge(const Session& shard, unsigned lane) {
    auto l = lock();
    merge_unlocked(shard, lane);
  }

  /// merge() body for callers already holding lock().
  void merge_unlocked(const Session& shard, unsigned lane) {
    metrics_.merge_from(shard.metrics_);
    spans_.merge_from(shard.spans_, lane);
    if (trace_.enabled()) {
      shard.trace_.for_each([this](const sim::TraceEvent& e) {
        trace_.emit(e.cycle, e.source, e.what);
      });
    }
  }

  void clear() {
    metrics_.clear();
    spans_.clear();
    trace_.clear();
    flight_.clear();
  }

  /// Between-ops reset for reused shard sessions: like clear(), but metric
  /// map nodes stay allocated (values zeroed, touched flags dropped), so a
  /// worker recording dozens of metrics per op skips the map teardown and
  /// re-registration cost. merge() ignores the untouched leftovers.
  void reset_for_reuse() {
    metrics_.reset_values();
    spans_.clear();
    trace_.clear();
    flight_.clear();
  }

 private:
  static constexpr int kLockSpins = 200;
  std::mutex mu_;
  MetricsRegistry metrics_;
  SpanRecorder spans_;
  sim::Trace trace_;
  FlightRecorder flight_;
};

}  // namespace xd::telemetry
