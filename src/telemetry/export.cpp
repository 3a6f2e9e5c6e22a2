#include "telemetry/export.hpp"

#include <algorithm>
#include <vector>

#include "telemetry/json.hpp"

namespace xd::telemetry {

namespace {

const char* kind_str(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "?";
}

/// RFC 4180 field quoting: wrap in double quotes when the value contains a
/// comma, quote, or newline, doubling any embedded quotes. Registry names
/// are restricted to [a-z0-9_.-] today, but the CSV stays well-formed even
/// if that ever loosens.
std::string csv_field(std::string_view v) {
  if (v.find_first_of(",\"\n\r") == std::string_view::npos) return std::string(v);
  std::string out = "\"";
  for (char c : v) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string metrics_to_json(const MetricsRegistry& reg) {
  JsonWriter w;
  w.begin_object();
  reg.for_each([&](const std::string& name, const Metric& m) {
    w.key(name).begin_object();
    w.kv("kind", kind_str(m.kind));
    switch (m.kind) {
      case MetricKind::Counter:
        w.kv("value", m.count);
        break;
      case MetricKind::Gauge:
        w.kv("value", m.value);
        break;
      case MetricKind::Histogram:
        w.kv("count", static_cast<u64>(m.dist.count()));
        w.kv("sum", m.dist.sum());
        w.kv("mean", m.dist.mean());
        w.kv("stddev", m.dist.stddev());
        w.kv("min", m.dist.min());
        w.kv("max", m.dist.max());
        w.kv("p50", MetricsRegistry::percentile(m, 0.50));
        w.kv("p95", MetricsRegistry::percentile(m, 0.95));
        w.kv("p99", MetricsRegistry::percentile(m, 0.99));
        break;
    }
    w.end_object();
  });
  w.end_object();
  return w.str();
}

std::string metrics_to_csv(const MetricsRegistry& reg) {
  std::string out = "name,kind,count,value,mean,stddev,min,max,p50,p95,p99\n";
  reg.for_each([&](const std::string& name, const Metric& m) {
    out += csv_field(name);
    out += ',';
    out += kind_str(m.kind);
    switch (m.kind) {
      case MetricKind::Counter:
        out += cat(",", m.count, ",", m.count, ",,,,,,,");
        break;
      case MetricKind::Gauge:
        out += cat(",1,", json_number(m.value), ",,,,,,,");
        break;
      case MetricKind::Histogram:
        out += cat(",", m.dist.count(), ",", json_number(m.dist.sum()), ",",
                   json_number(m.dist.mean()), ",", json_number(m.dist.stddev()),
                   ",", json_number(m.dist.min()), ",", json_number(m.dist.max()),
                   ",", json_number(MetricsRegistry::percentile(m, 0.50)),
                   ",", json_number(MetricsRegistry::percentile(m, 0.95)),
                   ",", json_number(MetricsRegistry::percentile(m, 0.99)));
        break;
    }
    out += '\n';
  });
  return out;
}

std::string report_to_json(const host::PerfReport& r) {
  JsonWriter w;
  w.begin_object();
  w.kv("design", r.design);
  w.kv("cycles", r.cycles);
  w.kv("compute_cycles", r.compute_cycles);
  w.kv("staging_cycles", r.staging_cycles);
  w.kv("flops", r.flops);
  w.kv("stall_cycles", r.stall_cycles);
  w.kv("sram_words", r.sram_words);
  w.kv("dram_words", r.dram_words);
  w.kv("clock_mhz", r.clock_mhz);
  w.kv("seconds", r.seconds());
  w.kv("sustained_mflops", r.sustained_mflops());
  w.kv("flops_per_cycle", r.flops_per_cycle());
  w.kv("sram_bytes_per_s", r.sram_bytes_per_s());
  w.kv("dram_bytes_per_s", r.dram_bytes_per_s());
  w.end_object();
  return w.str();
}

std::string spans_to_json(const SpanRecorder& spans) {
  JsonWriter w;
  w.begin_array();
  for (const auto& s : spans.spans()) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("begin", s.begin);
    w.kv("end", s.end);
    w.kv("lane", s.lane);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

std::string chrome_trace_json(const Session& session, double clock_mhz,
                              std::string_view trace_filter) {
  // Microseconds per cycle: trace_event timestamps are in us.
  const double us = clock_mhz > 0 ? 1.0 / clock_mhz : 1.0;

  JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  // Process/thread naming metadata so the viewer shows meaningful lanes.
  w.begin_object();
  w.kv("name", "process_name").kv("ph", "M").kv("pid", 1).kv("tid", 0);
  w.key("args").begin_object().kv("name", "xdblas").end_object();
  w.end_object();

  const std::vector<Span> spans = session.spans().spans();

  // One viewer track per recording lane: lane 0 is the caller thread's
  // timeline, lane w+1 is pool worker w (merged shards from Runtime::submit).
  // A concurrent batch therefore renders as parallel per-worker tracks.
  std::vector<unsigned> lanes;
  for (const auto& s : spans) {
    if (std::find(lanes.begin(), lanes.end(), s.lane) == lanes.end()) {
      lanes.push_back(s.lane);
    }
  }
  std::sort(lanes.begin(), lanes.end());
  for (unsigned lane : lanes) {
    w.begin_object();
    w.kv("name", "thread_name").kv("ph", "M").kv("pid", 1);
    w.kv("tid", static_cast<u64>(lane));
    w.key("args").begin_object();
    w.kv("name", lane == 0 ? std::string("caller") : cat("worker ", lane - 1));
    w.end_object();
    w.end_object();
  }

  for (const auto& s : spans) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", static_cast<u64>(s.lane));
    w.kv("ts", static_cast<double>(s.begin) * us);
    w.kv("dur", static_cast<double>(s.cycles()) * us);
    w.key("args").begin_object();
    w.kv("begin_cycle", s.begin);
    w.kv("end_cycle", s.end);
    w.kv("lane", s.lane);
    w.end_object();
    w.end_object();
  }

  session.trace().for_each([&](const sim::TraceEvent& e) {
    if (!trace_filter.empty() && e.source.find(trace_filter) == std::string::npos) {
      return;
    }
    w.begin_object();
    w.kv("name", e.what);
    w.kv("cat", e.source);
    w.kv("ph", "i");
    w.kv("s", "t");  // thread-scoped instant
    w.kv("pid", 1);
    w.kv("tid", 0);  // the shared sink has no lane; pin to the caller track
    w.kv("ts", static_cast<double>(e.cycle) * us);
    w.key("args").begin_object();
    w.kv("cycle", e.cycle);
    w.kv("source", e.source);
    w.end_object();
    w.end_object();
  });

  w.end_array();
  w.end_object();
  return w.str();
}

std::string flight_to_json(const FlightRecorder& flight) {
  const std::vector<TraceContext> records = flight.snapshot();
  JsonWriter w;
  w.begin_object();
  w.kv("capacity", static_cast<u64>(flight.capacity()));
  w.kv("total", flight.total());
  w.kv("errors", flight.errors());
  w.key("records").begin_array();
  for (const auto& tc : records) {
    w.begin_object();
    w.kv("op_id", tc.op_id);
    w.kv("kind", tc.kind);
    w.kv("lane", tc.lane);
    w.kv("submit_ns", tc.submit_ns);
    w.kv("dequeue_ns", tc.dequeue_ns);
    w.kv("plan_ns", tc.plan_ns);
    w.kv("exec_ns", tc.exec_ns);
    w.kv("complete_ns", tc.complete_ns);
    w.kv("queue_wait_ns", tc.queue_wait_ns());
    w.kv("e2e_ns", tc.e2e_ns());
    w.kv("cycles", tc.cycles);
    w.kv("failed", tc.failed);
    w.kv("error", tc.error);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace xd::telemetry
