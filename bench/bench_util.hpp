// Shared helpers for the experiment-reproduction benches. Each bench binary
// regenerates one table or figure from the paper and prints paper-reported
// values next to what this reproduction measures.
//
// Machine-readable output: set XDBLAS_BENCH_JSON to a file path ("-" for
// stdout) and every heading / note / table / report that goes through these
// helpers is also appended there as one JSON object per line (JSONL), so the
// perf-trajectory scripts can scrape benches without parsing aligned text.
//
// Gated bench rows share one record shape, written by record() (the
// bench_all target collects them into BENCH.json; tools/bench_compare diffs
// two such files):
//
//   {"event":"bench","op":...,"cycles":...,"bits_equal":...,
//    "wall_ns":{"median":...,"p10":...,"p90":...,"reps":...},
//    "counters":{...},"info":{...}}
//
// cycles and counters are deterministic and must never move; wall_ns is
// the spread of repeated host timings; info is derived and print-only.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "host/report.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"

namespace xd::bench {

inline std::FILE* jsonl_stream() {
  static std::FILE* f = [] {
    const char* path = std::getenv("XDBLAS_BENCH_JSON");
    if (!path || !*path) return static_cast<std::FILE*>(nullptr);
    if (std::string(path) == "-") return stdout;
    return std::fopen(path, "a");
  }();
  return f;
}

inline void jsonl(const std::string& line) {
  if (std::FILE* f = jsonl_stream()) {
    std::fputs(line.c_str(), f);
    std::fputc('\n', f);
    std::fflush(f);
  }
}

inline void heading(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
  if (jsonl_stream()) {
    telemetry::JsonWriter w;
    w.begin_object().kv("event", "heading").kv("title", title).end_object();
    jsonl(w.str());
  }
}

inline void note(const std::string& text) {
  std::printf("%s\n", text.c_str());
  if (jsonl_stream()) {
    telemetry::JsonWriter w;
    w.begin_object().kv("event", "note").kv("text", text).end_object();
    jsonl(w.str());
  }
}

inline void print_table(const TextTable& t) {
  std::printf("%s\n", t.render().c_str());
  if (jsonl_stream()) {
    telemetry::JsonWriter w;
    w.begin_object().kv("event", "table");
    w.key("header").begin_array();
    for (const auto& h : t.header()) w.value(h);
    w.end_array();
    w.key("rows").begin_array();
    for (const auto& row : t.rows()) {
      w.begin_array();
      for (const auto& cell : row) w.value(cell);
      w.end_array();
    }
    w.end_array().end_object();
    jsonl(w.str());
  }
}

/// Emit one measured PerfReport as a JSONL row (no-op without the env var).
inline void report_row(const std::string& label, const host::PerfReport& r) {
  if (!jsonl_stream()) return;
  telemetry::JsonWriter w;
  w.begin_object().kv("event", "report").kv("label", label);
  w.key("report").raw(telemetry::report_to_json(r));
  w.end_object();
  jsonl(w.str());
}

/// Wall-clock samples of one bench row, one per rep, in nanoseconds.
struct WallNs {
  std::vector<double> ns;  ///< in run order

  /// Quantile q in [0, 1], linearly interpolated between sorted samples.
  double quantile(double q) const {
    if (ns.empty()) return 0.0;
    std::vector<double> s = ns;
    std::sort(s.begin(), s.end());
    const double at = q * static_cast<double>(s.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (at - static_cast<double>(lo)) * (s[hi] - s[lo]);
  }
  double median() const { return quantile(0.5); }

  /// Divide every sample by `n`: a rep that ran n ops reports ns per op.
  WallNs& per(double n) {
    for (double& v : ns) v /= n;
    return *this;
  }
};

/// Run `reps` rounds of the given arms and time each call. A round calls
/// every arm once, in order, so a burst of host noise lands on all arms of
/// that round alike; sample r of each arm comes from round r.
template <typename... Arms>
std::array<WallNs, sizeof...(Arms)> time_reps(int reps, Arms&&... arms) {
  std::array<WallNs, sizeof...(Arms)> out;
  for (int r = 0; r < reps; ++r) {
    std::size_t i = 0;
    ([&] {
      const auto start = std::chrono::steady_clock::now();
      arms();
      const auto stop = std::chrono::steady_clock::now();
      out[i++].ns.push_back(
          std::chrono::duration<double, std::nano>(stop - start).count());
    }(), ...);
  }
  return out;
}

/// One gated bench row. Two-arm benches (soft/native, fused/unfused,
/// detached/attached) write one record per arm, named "op/arm"; both arms
/// carry the workload's cycles, bits_equal and counters.
struct Record {
  std::string op;
  u64 cycles = 0;           ///< simulated cycles: exact, never moves
  bool bits_equal = false;  ///< the bench's bit-identity check passed
  WallNs wall;
  /// Deterministic integers that must never move (link words, model and
  /// staging cycles, ...).
  std::vector<std::pair<std::string, double>> counters;
  /// Derived, print-only figures (speedup, overhead %, ops/s, ...).
  std::vector<std::pair<std::string, double>> info;
};

inline std::string record_json(const Record& r) {
  telemetry::JsonWriter w;
  w.begin_object()
      .kv("event", "bench")
      .kv("op", r.op)
      .kv("cycles", r.cycles)
      .kv("bits_equal", r.bits_equal);
  w.key("wall_ns")
      .begin_object()
      .kv("median", r.wall.median())
      .kv("p10", r.wall.quantile(0.1))
      .kv("p90", r.wall.quantile(0.9))
      .kv("reps", static_cast<u64>(r.wall.ns.size()))
      .end_object();
  for (const auto& [name, group] : {std::pair{"counters", &r.counters},
                                     std::pair{"info", &r.info}}) {
    w.key(name).begin_object();
    for (const auto& [k, v] : *group) w.kv(k, v);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

/// Append one gated row to the JSONL stream (no-op without the env var).
inline void record(const Record& r) {
  if (jsonl_stream()) jsonl(record_json(r));
}

/// "2.06 GB/s"-style formatting.
inline std::string gbs(double bytes_per_s) {
  if (bytes_per_s >= 1e9) return TextTable::num(bytes_per_s / 1e9, 2) + " GB/s";
  return TextTable::num(bytes_per_s / 1e6, 1) + " MB/s";
}

inline std::string mflops(double flops) {
  if (flops >= 1e9) return TextTable::num(flops / 1e9, 2) + " GFLOPS";
  return TextTable::num(flops / 1e6, 0) + " MFLOPS";
}

inline std::string pct(double fraction) {
  return TextTable::num(fraction * 100.0, 1) + "%";
}

}  // namespace xd::bench
