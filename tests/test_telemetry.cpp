// Tests for the telemetry layer: metrics registry, phase spans, JSON
// emission/validation, exporters, the circular trace buffer, and the
// end-to-end wiring through host::Context.
#include <gtest/gtest.h>

#include <cmath>

#include "host/context.hpp"
#include "common/random.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "telemetry/span.hpp"

using namespace xd;
using namespace xd::telemetry;

// ---- registry --------------------------------------------------------------

TEST(Metrics, NameValidation) {
  EXPECT_TRUE(MetricsRegistry::valid_name("mem.sram.bank0.stall_cycles"));
  EXPECT_TRUE(MetricsRegistry::valid_name("a"));
  EXPECT_TRUE(MetricsRegistry::valid_name("a-b_c9.d"));
  EXPECT_FALSE(MetricsRegistry::valid_name(""));
  EXPECT_FALSE(MetricsRegistry::valid_name(".leading"));
  EXPECT_FALSE(MetricsRegistry::valid_name("trailing."));
  EXPECT_FALSE(MetricsRegistry::valid_name("dou..ble"));
  EXPECT_FALSE(MetricsRegistry::valid_name("Upper.case"));
  EXPECT_FALSE(MetricsRegistry::valid_name("spa ce"));

  MetricsRegistry reg;
  EXPECT_THROW(reg.counter("Bad.Name"), ConfigError);
}

TEST(Metrics, CounterGaugeHistogramRoundTrip) {
  MetricsRegistry reg;
  auto c = reg.counter("blas1.dot.runs");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Re-requesting the same name returns the same metric.
  EXPECT_EQ(reg.counter("blas1.dot.runs").value(), 42u);

  auto g = reg.gauge("fpu.dot.utilization");
  g.set(0.25);
  g.set(0.75);  // last write wins
  EXPECT_DOUBLE_EQ(reg.gauge("fpu.dot.utilization").value(), 0.75);

  auto h = reg.histogram("blas1.dot.vector_words");
  h.observe(10.0);
  h.observe(20.0);
  h.observe(30.0);
  EXPECT_EQ(h.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(h.stats().mean(), 20.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), 10.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 30.0);

  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.contains("blas1.dot.runs"));
  EXPECT_FALSE(reg.contains("blas1.dot.missing"));
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("mem.dot.words");
  EXPECT_THROW(reg.gauge("mem.dot.words"), ConfigError);
  EXPECT_THROW(reg.histogram("mem.dot.words"), ConfigError);
}

TEST(Metrics, RepeatMergesFollowTheSourcesShape) {
  // merge_from binds a source's entries once per source epoch: merges
  // after the source gained a metric, and after the target was cleared,
  // must still land every value on its own name.
  MetricsRegistry src, dst;
  src.counter("b.count").add(2);
  src.gauge("c.gauge").set(0.5);
  dst.merge_from(src);
  dst.merge_from(src);
  EXPECT_EQ(dst.counter("b.count").value(), 4u);
  src.counter("a.first").add(7);  // sorts before the bound entries
  dst.merge_from(src);
  EXPECT_EQ(dst.counter("a.first").value(), 7u);
  EXPECT_EQ(dst.counter("b.count").value(), 6u);
  EXPECT_DOUBLE_EQ(dst.gauge("c.gauge").value(), 0.5);
  src.reset_values();
  src.counter("b.count").add(1);
  dst.merge_from(src);  // untouched entries stay out
  EXPECT_EQ(dst.counter("a.first").value(), 7u);
  EXPECT_EQ(dst.counter("b.count").value(), 7u);
  dst.clear();
  dst.merge_from(src);
  EXPECT_EQ(dst.size(), 1u);
  EXPECT_EQ(dst.counter("b.count").value(), 1u);
}

TEST(Metrics, MetricListRewritesGaugesAfterAReset) {
  MetricList list(MetricKind::Gauge, {"x.one", "x.two"});
  MetricsRegistry reg;
  const double v1[] = {1.0, 2.0};
  list.set_gauges(reg, v1);
  EXPECT_DOUBLE_EQ(reg.gauge("x.two").value(), 2.0);
  reg.reset_values();
  list.set_gauges(reg, v1);  // unchanged values, but the reset dropped them
  EXPECT_DOUBLE_EQ(reg.gauge("x.one").value(), 1.0);
  EXPECT_TRUE(reg.find("x.two")->touched);
  const double v2[] = {1.0, 5.0};
  list.set_gauges(reg, v2);
  EXPECT_DOUBLE_EQ(reg.gauge("x.two").value(), 5.0);
  MetricsRegistry other;  // another registry binds its own handles
  list.set_gauges(other, v2);
  EXPECT_DOUBLE_EQ(other.gauge("x.one").value(), 1.0);
}

TEST(Metrics, NamesAreSorted) {
  MetricsRegistry reg;
  reg.counter("z.last");
  reg.counter("a.first");
  reg.counter("m.middle");
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a.first");
  EXPECT_EQ(names[1], "m.middle");
  EXPECT_EQ(names[2], "z.last");
}

// ---- spans -----------------------------------------------------------------

TEST(Spans, PhasesTileTheTimeline) {
  SpanRecorder rec;
  rec.phase("staging", 100);
  rec.phase("compute", 250);
  rec.phase("staging", 50);

  EXPECT_EQ(rec.cursor(), 400u);
  EXPECT_EQ(rec.total_cycles("staging"), 150u);
  EXPECT_EQ(rec.total_cycles("compute"), 250u);

  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "staging");
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, 100u);
  EXPECT_EQ(spans[1].name, "compute");
  EXPECT_EQ(spans[1].begin, 100u);
  EXPECT_EQ(spans[1].end, 350u);
  EXPECT_EQ(spans[2].begin, 350u);
  EXPECT_EQ(spans[2].end, 400u);
}

// ---- JSON ------------------------------------------------------------------

TEST(Json, EscapeAndNumbers) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(42.0), "42");
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  // Round-trippable shortest form.
  EXPECT_EQ(std::stod(json_number(0.1)), 0.1);
}

TEST(Json, WriterGoldenOutput) {
  JsonWriter w;
  w.begin_object();
  w.kv("name", "dot");
  w.kv("cycles", static_cast<u64>(1234));
  w.key("nested").begin_object().kv("ok", true).end_object();
  w.key("list").begin_array().value(1).value(2).value(3).end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            R"({"name":"dot","cycles":1234,"nested":{"ok":true},"list":[1,2,3]})");
}

TEST(Json, WriterRawSplicesValue) {
  JsonWriter w;
  w.begin_object().key("inner").raw(R"({"a":1})").kv("b", 2).end_object();
  EXPECT_EQ(w.str(), R"({"inner":{"a":1},"b":2})");
}

TEST(Json, ValidatorAcceptsAndRejects) {
  EXPECT_TRUE(json_validate(R"({"a":[1,2.5,-3e4],"b":{"c":null},"d":"xé"})"));
  EXPECT_TRUE(json_validate("[]"));
  EXPECT_TRUE(json_validate("42"));
  std::string err;
  EXPECT_FALSE(json_validate("", &err));
  EXPECT_FALSE(json_validate("{", &err));
  EXPECT_FALSE(json_validate("{'a':1}", &err));
  EXPECT_FALSE(json_validate(R"({"a":1,})", &err));
  EXPECT_FALSE(json_validate(R"({"a":1} extra)", &err));
  EXPECT_FALSE(json_validate("[1,2,]", &err));
  EXPECT_FALSE(json_validate("01", &err));
  EXPECT_FALSE(json_validate("\"unterminated", &err));
  EXPECT_FALSE(err.empty());
}

// ---- exporters -------------------------------------------------------------

TEST(Export, MetricsJsonGolden) {
  MetricsRegistry reg;
  reg.counter("blas1.dot.runs").add(2);
  reg.gauge("fpu.dot.utilization").set(0.5);
  auto h = reg.histogram("blas1.dot.vector_words");
  h.observe(4.0);
  h.observe(8.0);

  const std::string json = metrics_to_json(reg);
  EXPECT_TRUE(json_validate(json)) << json;
  // p50 of {4, 8} is the first sample covering half the mass: 4. The
  // samples are powers of two, so the sketch reports them exactly.
  EXPECT_EQ(json,
            R"({"blas1.dot.runs":{"kind":"counter","value":2},)"
            R"("blas1.dot.vector_words":{"kind":"histogram","count":2,"sum":12,)"
            R"("mean":6,"stddev":2,"min":4,"max":8,"p50":4,"p95":8,"p99":8},)"
            R"("fpu.dot.utilization":{"kind":"gauge","value":0.5}})");
}

TEST(Export, MetricsCsv) {
  MetricsRegistry reg;
  reg.counter("a.count").add(3);
  reg.gauge("b.rate").set(1.5);
  const std::string csv = metrics_to_csv(reg);
  EXPECT_EQ(csv,
            "name,kind,count,value,mean,stddev,min,max,p50,p95,p99\n"
            "a.count,counter,3,3,,,,,,,\n"
            "b.rate,gauge,1,1.5,,,,,,,\n");
}

TEST(Export, ReportJsonFiniteOnDegenerateReports) {
  // clock_mhz == 0 and cycles == 0 must not leak NaN/inf into the export.
  host::PerfReport zero;
  const std::string j0 = report_to_json(zero);
  EXPECT_TRUE(json_validate(j0)) << j0;
  EXPECT_EQ(j0.find("nan"), std::string::npos);
  EXPECT_EQ(j0.find("inf"), std::string::npos);

  host::PerfReport no_clock;
  no_clock.cycles = 1000;
  no_clock.flops = 2000;
  no_clock.sram_words = 10.0;
  EXPECT_DOUBLE_EQ(no_clock.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(no_clock.sustained_mflops(), 0.0);
  const std::string j1 = report_to_json(no_clock);
  EXPECT_TRUE(json_validate(j1)) << j1;
  EXPECT_EQ(j1.find("nan"), std::string::npos);
  EXPECT_EQ(j1.find("inf"), std::string::npos);
}

TEST(Export, ChromeTraceFromSessionValidates) {
  Session tel;
  tel.phase("staging", 100);
  tel.phase("compute", 300);
  tel.trace().set_enabled(true);
  tel.trace().emit(5, "reduce.buf", "swap A->B");
  tel.trace().emit(7, "mem.bank0", "stall");

  const std::string trace = chrome_trace_json(tel, 100.0);
  EXPECT_TRUE(json_validate(trace)) << trace;
  EXPECT_NE(trace.find("\"staging\""), std::string::npos);
  EXPECT_NE(trace.find("\"compute\""), std::string::npos);
  EXPECT_NE(trace.find("swap A->B"), std::string::npos);

  // The filter keeps only matching trace events; spans always survive.
  const std::string filtered = chrome_trace_json(tel, 100.0, "reduce");
  EXPECT_TRUE(json_validate(filtered)) << filtered;
  EXPECT_NE(filtered.find("reduce.buf"), std::string::npos);
  EXPECT_EQ(filtered.find("mem.bank0"), std::string::npos);
  EXPECT_NE(filtered.find("\"compute\""), std::string::npos);
}

TEST(Export, SpansJson) {
  SpanRecorder rec;
  rec.phase("compute", 10);
  const std::string json = spans_to_json(rec);
  EXPECT_TRUE(json_validate(json)) << json;
  EXPECT_EQ(json,
            R"([{"name":"compute","begin":0,"end":10,"lane":0}])");
}

// ---- span lane merging -----------------------------------------------------

TEST(SpanMerge, ShardsLandOnTheirLanesAndTile) {
  SpanRecorder main;
  main.phase("staging", 10);  // lane 0, [0, 10)

  SpanRecorder shard_a;
  shard_a.phase("compute", 30);
  SpanRecorder shard_b;
  shard_b.phase("compute", 50);

  main.merge_from(shard_a, 1);  // worker 0 -> lane 1
  main.merge_from(shard_b, 2);  // worker 1 -> lane 2
  main.merge_from(shard_a, 1);  // second op on worker 0 tiles after the first

  EXPECT_EQ(main.lane_cursor(0), 10u);
  EXPECT_EQ(main.lane_cursor(1), 60u);  // 30 + 30
  EXPECT_EQ(main.lane_cursor(2), 50u);

  const auto spans = main.spans();
  ASSERT_EQ(spans.size(), 4u);
  // (begin, lane) order: lane-0 staging, then the three merged runs.
  EXPECT_EQ(spans[0].name, "staging");
  EXPECT_EQ(spans[0].lane, 0u);
  EXPECT_EQ(spans[1].lane, 1u);
  EXPECT_EQ(spans[1].begin, 0u);
  EXPECT_EQ(spans[1].end, 30u);
  EXPECT_EQ(spans[2].lane, 2u);
  EXPECT_EQ(spans[3].lane, 1u);
  EXPECT_EQ(spans[3].begin, 30u);  // tiled after shard_a's first merge
  EXPECT_EQ(spans[3].end, 60u);

  // Per-name totals aggregate across lanes.
  EXPECT_EQ(main.total_cycles("compute"), 110u);
}

TEST(SpanMerge, Lane0EquivalentToDirectRecordingAndOpenSpansThrow) {
  SpanRecorder direct;
  direct.phase("a", 5);
  direct.phase("b", 7);

  SpanRecorder main, shard;
  main.phase("a", 5);
  shard.phase("b", 7);
  main.merge_from(shard, 0);
  EXPECT_EQ(spans_to_json(main), spans_to_json(direct));
  EXPECT_EQ(main.cursor(), direct.cursor());
}

// ---- session merge ---------------------------------------------------------

TEST(SessionMerge, MetricsCombineAcrossShards) {
  Session main;
  main.counter("ops").add(2);
  main.histogram("lat").observe(10.0);

  Session shard;
  shard.counter("ops").add(3);
  shard.gauge("depth").set(4.0);
  shard.histogram("lat").observe(20.0);
  shard.phase("compute", 9);

  main.merge(shard, 1);
  EXPECT_EQ(main.counter("ops").value(), 5u);
  EXPECT_DOUBLE_EQ(main.gauge("depth").value(), 4.0);
  EXPECT_EQ(main.histogram("lat").stats().count(), 2u);
  EXPECT_DOUBLE_EQ(main.histogram("lat").stats().max(), 20.0);
  EXPECT_DOUBLE_EQ(main.histogram("lat").percentile(0.99), 20.0);
  EXPECT_EQ(main.spans().total_cycles("compute"), 9u);

  // Kind mismatch across shards is a configuration error, not silent data.
  Session bad;
  bad.gauge("ops").set(1.0);
  EXPECT_THROW(main.merge(bad, 1), ConfigError);
}

TEST(SessionMerge, TraceEventsReEmitOnlyWhenEnabled) {
  Session shard;
  shard.trace().set_enabled(true);
  shard.trace().emit(3, "reduce.buf", "swap");

  Session off;  // tracing disabled (the default): shard events are dropped
  off.merge(shard, 1);
  EXPECT_EQ(off.trace().size(), 0u);

  Session on;
  on.trace().set_enabled(true);
  on.merge(shard, 1);
  ASSERT_EQ(on.trace().size(), 1u);
  EXPECT_EQ(on.trace().events().front().what, "swap");
}

// ---- flight recorder -------------------------------------------------------

TEST(Flight, RingKeepsNewestAndCountsTotals) {
  FlightRecorder fr(3);
  for (u64 i = 0; i < 5; ++i) {
    TraceContext tc;
    tc.op_id = i;
    tc.failed = (i == 4);
    fr.record(tc);
  }
  EXPECT_EQ(fr.size(), 3u);
  EXPECT_EQ(fr.capacity(), 3u);
  EXPECT_EQ(fr.total(), 5u);
  EXPECT_EQ(fr.errors(), 1u);
  const auto snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front().op_id, 2u);  // oldest retained
  EXPECT_EQ(snap.back().op_id, 4u);
  EXPECT_TRUE(snap.back().failed);
  fr.clear();
  EXPECT_EQ(fr.size(), 0u);
  EXPECT_EQ(fr.total(), 0u);
}

TEST(Flight, JsonExportValidatesAndCarriesLifecycle) {
  FlightRecorder fr(8);
  TraceContext tc;
  tc.op_id = 7;
  tc.kind = "gemv";
  tc.lane = 2;
  tc.submit_ns = 100;
  tc.dequeue_ns = 150;
  tc.plan_ns = 160;
  tc.exec_ns = 170;
  tc.complete_ns = 300;
  tc.cycles = 1234;
  fr.record(tc);
  TraceContext bad;
  bad.op_id = 8;
  bad.failed = true;
  bad.error = "ConfigError: \"x\" too short";
  fr.record(bad);

  const std::string json = flight_to_json(fr);
  EXPECT_TRUE(json_validate(json)) << json;
  EXPECT_NE(json.find("\"op_id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"gemv\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_ns\":50"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_ns\":200"), std::string::npos);
  EXPECT_NE(json.find("\"failed\":true"), std::string::npos);
  EXPECT_NE(json.find("too short"), std::string::npos);
}

TEST(Export, ChromeTracePerLaneTids) {
  Session tel;
  tel.phase("staging", 10);  // lane 0
  Session shard;
  shard.phase("compute", 20);
  tel.merge(shard, 3);  // worker 2 -> lane 3

  const std::string trace = chrome_trace_json(tel, 100.0);
  EXPECT_TRUE(json_validate(trace)) << trace;
  // Spans carry their lane both as the tid and in args (the CI smoke greps
  // the args form), and each lane gets a thread_name metadata event.
  EXPECT_NE(trace.find("\"lane\":0"), std::string::npos);
  EXPECT_NE(trace.find("\"lane\":3"), std::string::npos);
  EXPECT_NE(trace.find("\"tid\":3"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"caller\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"worker 2\""), std::string::npos);
}

// ---- circular trace buffer -------------------------------------------------

TEST(TraceBuffer, EvictsOldestAndCountsTotal) {
  sim::Trace t(3);
  for (u64 i = 0; i < 5; ++i) t.emit(i, "src", cat("e", i));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.total_emitted(), 5u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs.front().cycle, 2u);  // oldest retained
  EXPECT_EQ(evs.back().cycle, 4u);
  EXPECT_EQ(t.render(2), "3  src  e3\n4  src  e4\n");
}

TEST(TraceBuffer, DisabledEmitsNothing) {
  sim::Trace t(8);
  t.set_enabled(false);
  t.emit(1, "src", "dropped");
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.total_emitted(), 0u);
}

// ---- end-to-end through host::Context --------------------------------------

TEST(ContextTelemetry, DotPhasesTileTotalCycles) {
  Rng rng(11);
  Session tel;
  host::ContextConfig cfg;
  cfg.telemetry = &tel;
  host::Context ctx(cfg);

  const auto r = ctx.runtime().run(host::OpDesc::dot(
      rng.vector(256), rng.vector(256), host::Placement::Dram));
  EXPECT_EQ(tel.spans().total_cycles("staging") +
                tel.spans().total_cycles("compute"),
            r.report.cycles);
  EXPECT_GT(tel.metrics().size(), 0u);
  EXPECT_TRUE(tel.metrics().contains("blas1.dot.runs"));
  EXPECT_TRUE(tel.metrics().contains("mem.dot.sram.words"));
}

TEST(ContextTelemetry, GemmPhasesAndNamespaces) {
  Rng rng(12);
  Session tel;
  host::ContextConfig cfg;
  cfg.telemetry = &tel;
  host::Context ctx(cfg);

  const std::size_t n = 64;
  const auto out = ctx.runtime().run(
      host::OpDesc::gemm(rng.matrix(n, n), rng.matrix(n, n), n));
  EXPECT_EQ(tel.spans().total_cycles("compute") +
                tel.spans().total_cycles("staging"),
            out.report.cycles);

  // The acceptance bar: >= 10 distinct names across mem.*, fpu.* and blas3.*.
  std::size_t mem = 0, fpu = 0, blas3 = 0;
  for (const auto& name : tel.metrics().names()) {
    mem += name.rfind("mem.", 0) == 0;
    fpu += name.rfind("fpu.", 0) == 0;
    blas3 += name.rfind("blas3.", 0) == 0;
  }
  EXPECT_GE(tel.metrics().size(), 10u);
  EXPECT_GE(mem, 1u);
  EXPECT_GE(fpu, 1u);
  EXPECT_GE(blas3, 1u);
}

TEST(ContextTelemetry, DisabledByDefaultRecordsNothing) {
  Rng rng(13);
  host::Context ctx;  // no session attached
  const auto r =
      ctx.runtime().run(host::OpDesc::dot(rng.vector(128), rng.vector(128)));
  EXPECT_GT(r.report.cycles, 0u);  // ran fine without any telemetry sink
}
