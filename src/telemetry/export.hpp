// Machine-readable serialization of the telemetry state.
//
// Three consumers, three formats:
//  - metrics_to_json / metrics_to_csv: the full registry for dashboards and
//    the perf-trajectory scripts (one row per metric).
//  - report_to_json: a PerfReport with its derived figures, sanitized so a
//    zero-clock or zero-cycle report exports finite numbers.
//  - chrome_trace_json: spans + trace events in the Chrome trace_event
//    format (JSON Object Format), loadable in chrome://tracing or Perfetto.
//    Span begin/end cycles are converted to microseconds through the design
//    clock; with no clock, one cycle maps to one microsecond.
#pragma once

#include <string>
#include <string_view>

#include "host/report.hpp"
#include "telemetry/session.hpp"

namespace xd::telemetry {

std::string metrics_to_json(const MetricsRegistry& reg);

/// Header "name,kind,count,value,mean,stddev,min,max,p50,p95,p99"; one line
/// per metric, fields quoted per RFC 4180 when they contain commas/quotes.
std::string metrics_to_csv(const MetricsRegistry& reg);

std::string report_to_json(const host::PerfReport& r);

/// Spans only (no trace events), as a JSON array of
/// {name, begin, end, lane}.
std::string spans_to_json(const SpanRecorder& spans);

/// Chrome trace_event export: spans become complete ("X") events, retained
/// trace events become instant ("i") events. `clock_mhz <= 0` falls back to
/// 1 cycle == 1 us. `trace_filter` (when non-empty) keeps only trace events
/// whose source contains it; spans are always exported. Each recording lane
/// maps to its own tid (0 = caller thread, w+1 = pool worker w) with a
/// thread_name metadata event, so concurrent batches render as parallel
/// per-worker tracks in chrome://tracing or Perfetto.
std::string chrome_trace_json(const Session& session, double clock_mhz,
                              std::string_view trace_filter = {});

/// Flight-recorder dump: {capacity, total, errors, records: [...]}, records
/// oldest-first with per-op lifecycle timestamps (see TraceContext).
std::string flight_to_json(const FlightRecorder& flight);

}  // namespace xd::telemetry
