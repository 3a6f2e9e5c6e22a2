// serve_small: a closed loop over loopback against an in-process
// serve::Server with its default configuration. Four connections, one
// client thread each, exactly one request outstanding per connection: the
// next line goes out when the previous reply has arrived. Lines cycle
// through eight small shapes, all under the server's pin_capacity, so
// per-request overhead (framing, parse and materialise, encode, the two
// threads per connection, pool dispatch) dominates the engine work.
//
// Every reply's values_fnv and cycles are checked against a local
// sequential Runtime::run (run_graph for the graph line) of the same line,
// computed before timing. The traced reference pass times the calls the
// server makes per request: parse_record, Runtime::run / submit, and
// outcome_record / graph_record.
#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/random.hpp"
#include "common/socket.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

using namespace xd;

constexpr unsigned kConnections = 4;
constexpr unsigned kSeedsPerShape = 8;

constexpr const char* kShapes[] = {
    "dot --n 32",
    "dot --n 256",
    "dot --n 1024",
    "gemv --n 16",
    "gemv --n 96",
    "spmxv --n 128 --nnz-per-row 8",
    "gemm --n 32",
    "graph ap=gemv:n=96 pap=dot:n=96,b=@ap --from-dram",
};
constexpr std::size_t kShapeCount = sizeof kShapes / sizeof kShapes[0];
constexpr std::size_t kGraphShape = kShapeCount - 1;
constexpr std::size_t kLines = kShapeCount * kSeedsPerShape;
/// Reference passes of a traced run; the first, cold one is not timed.
constexpr int kTracedPasses = 4;
/// Round trips per connection in a traced phase's transport probe.
constexpr unsigned kTransportProbes = 200;

/// What a reply must carry: the record-level digest and aggregate cycles.
struct Digest {
  std::string fnv;
  u64 cycles = 0;
  bool operator==(const Digest&) const = default;
};

/// Last `"key":"..."` string value in `rec`, or "" when absent.
std::string last_str(const std::string& rec, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const auto pos = rec.rfind(pat);
  if (pos == std::string::npos) return "";
  const auto start = pos + pat.size();
  const auto end = rec.find('"', start);
  return end == std::string::npos ? "" : rec.substr(start, end - start);
}

/// Numeric `"key":N` at or after `from`; false when absent.
bool num_after(const std::string& rec, const std::string& key,
               std::size_t from, double& out) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = rec.find(pat, from);
  if (pos == std::string::npos) return false;
  out = std::strtod(rec.c_str() + pos + pat.size(), nullptr);
  return true;
}

/// The digest of an op or graph record: its last values_fnv and the cycles
/// of its last (aggregate) report, extracted alike from both record kinds.
Digest digest(const std::string& rec) {
  Digest d;
  d.fnv = last_str(rec, "values_fnv");
  const auto rep = rec.rfind("\"report\":{");
  double cycles = 0;
  if (rep != std::string::npos && num_after(rec, "cycles", rep, cycles)) {
    d.cycles = static_cast<u64>(cycles);
  }
  return d;
}

/// One client connection with a single request in flight.
struct Client {
  Socket sock;
  LineFramer framer{1 << 20};
  u64 bytes_in = 0;

  /// Send `line` (newline-terminated) and read its reply record.
  bool round_trip(const std::string& line, std::string& reply) {
    if (!sock.send_all(line)) return false;
    char buf[8192];
    bool truncated = false;
    while (!framer.next(reply, truncated)) {
      const long got = sock.recv_some(buf, sizeof buf);
      if (got <= 0) return false;
      bytes_in += static_cast<u64>(got);
      framer.feed(buf, static_cast<std::size_t>(got));
    }
    return !truncated;
  }
};

class ServeSmall : public Workload {
 public:
  ServeSmall(u64 seed, Tracer* tr) {
    Rng rng(seed);
    for (std::size_t i = 0; i < kLines; ++i) {
      const u64 line_seed = rng.uniform_int(1, 1000000000);
      lines_.push_back(std::string(kShapes[i % kShapeCount]) + " --seed " +
                       std::to_string(line_seed) + "\n");
    }
    reference_pass(tr);
  }
  ~ServeSmall() override { teardown(); }

  void teardown() override {
    for (Client& c : clients_) c.sock.shutdown_write();
    if (server_) {
      server_->drain();
      serve_thread_.join();
    }
    clients_.clear();
    server_.reset();
  }

  void setup(Tracer* tr) override {
    select_backend();
    server_ = std::make_unique<serve::Server>(serve::ServerConfig{});
    serve_thread_ = std::thread([s = server_.get()] { s->serve(); });
    clients_.resize(kConnections);
    for (Client& c : clients_) c.sock = tcp_connect("127.0.0.1", server_->port());
    // The first plan build of every op shape, then one warm-up request per
    // shape, which also builds the graph line's plan inside the server.
    for (std::size_t k = 0; k < kShapeCount; ++k) {
      if (k == kGraphShape) continue;
      serve::Request req;
      serve::parse_record(lines_[k], 1, server_->runtime().config(), req);
      Scope s(tr, "host.plan.pin_plan", k, -1, engine_family(req.desc));
      server_->runtime().pin_plan(req.desc);
    }
    std::string reply;
    for (std::size_t k = 0; k < kShapeCount; ++k) {
      if (!clients_[0].round_trip(lines_[k], reply) ||
          digest(reply) != expected_[k]) {
        throw std::runtime_error("serve_small: warm-up reply mismatch: " + reply);
      }
    }
  }

  void run(const Budget& b, Tracer* tr, Tally& tally) override {
    // Each connection takes an equal share of a unit budget; a pool cycle
    // (kLines units) then sends every line exactly once.
    const Budget per_conn{b.seconds, (b.units + kConnections - 1) / kConnections};
    const u64 deadline = b.deadline();
    u64 bytes0 = 0;
    for (const Client& c : clients_) bytes0 += c.bytes_in;

    std::vector<Tally> per(kConnections);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        client_loop(c, per_conn, deadline, tr, per[c]);
      });
    }
    for (auto& t : threads) t.join();
    for (Tally& t : per) tally.merge(std::move(t));

    u64 bytes1 = 0;
    for (const Client& c : clients_) bytes1 += c.bytes_in;
    if (tr) {
      phase_requests_ = tally.attempted;
      phase_bytes_ = bytes1 - bytes0;
      const u64 p0 = now_ns();
      transport_probe(tr, tally);
      tally.probe_s += static_cast<double>(now_ns() - p0) / 1e9;
      fetch_stats();
    }
  }

  u64 pool_size() const override { return kLines; }

  Metrics fingerprint() const override {
    double cycles = 0;
    for (const Digest& d : expected_) cycles += static_cast<double>(d.cycles);
    return {{"sim_cycles_per_op", cycles / kLines},
            {"host.graph.staging_saved_cycles", graph_saved_}};
  }

  void layers(const std::vector<Span>& spans, const Tally& traced,
              Metrics& out, std::vector<LayerPart>& parts) override {
    // Per-line sums over the reference pass: each line's parse, execution
    // (run, or run_graph for the graph line), submit round trip, encode.
    double parse = 0, exec = 0, submit = 0, encode = 0, op_run = 0;
    double graph_run = 0, graph_nodes = 0;
    std::size_t op_lines = 0, graph_lines = 0;
    std::vector<long> line_of(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string_view(spans[i].name) == "serve.reference") {
        line_of[i] = static_cast<long>(spans[i].unit);
      }
    }
    for (const Span& s : spans) {
      if (s.parent < 0 || line_of[static_cast<std::size_t>(s.parent)] < 0) {
        continue;
      }
      const bool graph = s.unit % kShapeCount == kGraphShape;
      const std::string_view name = s.name;
      if (name == "serve.parse_record") parse += s.us();
      if (name == "serve.encode") encode += s.us();
      if (name == "host.runtime.submit") submit += s.us();
      if (name == "host.graph.run_graph") {
        exec += s.us();
        graph_run += s.us();
        ++graph_lines;
      }
      if (name == "host.runtime.run") {
        if (graph) {
          graph_nodes += s.us();
        } else {
          exec += s.us();
          op_run += s.us();
          ++op_lines;
        }
      }
    }
    const double lines = static_cast<double>(op_lines + graph_lines);
    if (lines == 0) return;
    parse /= lines;
    exec /= lines;
    submit /= lines;
    encode /= lines;
    // serve.transport_us is the residual, as is, even when negative. The
    // layer sum takes the transport probe's round trip instead: every term
    // of the sum is measured, so the sum can differ from the round trip.
    const double rtt = span_stats(spans, "serve.request").mean_us();
    const double transport = rtt - parse - submit - encode;
    const SpanStats probe = span_stats(spans, "serve.transport_probe");

    out["serve.parse_us"] = parse;
    out["serve.encode_us"] = encode;
    out["serve.transport_us"] = transport;
    if (phase_requests_ > 0) {
      const double reqs = static_cast<double>(phase_requests_);
      out["serve.bytes_out_per_req"] = static_cast<double>(phase_bytes_) / reqs;
      out["serve.ctx_switches_per_req"] = traced.cost.ctx_switches / reqs;
    }
    if (op_lines) out["host.runtime.run_us"] = op_run / op_lines;
    out["host.runtime.dispatch_us"] = submit - exec;
    if (stats_ok_) {
      out["host.runtime.queue_wait_p50_us"] = queue_wait_p50_us_;
      out["host.runtime.exec_p50_us"] = exec_p50_us_;
    }
    const SpanStats pins = span_stats(spans, "host.plan.pin_plan");
    if (pins.count) out["host.plan.build_us"] = pins.mean_us();
    if (plan_lookups_ > 0) out["host.plan.hit_rate"] = plan_hit_rate_;
    if (graph_lines) {
      out["host.graph.run_graph_us"] = graph_run / graph_lines;
      out["host.graph.overhead_us"] = (graph_run - graph_nodes) / graph_lines;
      out["host.graph.staging_saved_cycles"] = graph_saved_;
    }
    engine_metrics(spans, out);

    parts = {{"serve.parse", parse, false},
             {"host.runtime.run", exec, false},
             {"host.runtime.dispatch", submit - exec, false},
             {"serve.encode", encode, false},
             {"serve.transport.probe", probe.mean_us(), false},
             {"serve.transport", transport, true}};
  }

 private:
  /// Expected digests from a local sequential Runtime. Traced, the pass is
  /// repeated: its warm repetitions time each call the server makes for a
  /// request, and every repetition must reproduce the digests.
  void reference_pass(Tracer* tr) {
    host::ContextConfig base;
    host::Runtime rt(base);
    const int passes = tr ? kTracedPasses : 1;
    for (int pass = 0; pass < passes; ++pass) {
      Tracer* ptr = pass == 0 ? nullptr : tr;
      for (std::size_t i = 0; i < kLines; ++i) {
        const Digest d = reference_line(rt, base, i, ptr);
        if (pass == 0) {
          expected_.push_back(d);
        } else if (d != expected_[i]) {
          throw std::runtime_error("serve_small: reference run not repeatable: " +
                                   lines_[i]);
        }
      }
    }
    if (tr) mm_array_probe(rt, tr);
  }

  Digest reference_line(host::Runtime& rt, const host::ContextConfig& base,
                        std::size_t i, Tracer* tr) {
    Scope line(tr, "serve.reference", i);
    serve::Request req;
    {
      Scope s(tr, "serve.parse_record", i, line.id());
      serve::parse_record(lines_[i], i + 1, base, req);
    }
    if (!req.parse_error.empty() || req.cfg_override) {
      throw std::runtime_error("serve_small: bad line: " + lines_[i]);
    }
    std::string record;
    if (req.is_graph) {
      host::GraphOutcome go;
      {
        Scope s(tr, "host.graph.run_graph", i, line.id(), "graph");
        go = rt.run_graph(req.graph);
        s.cycles(go.report.cycles);
      }
      graph_saved_ = static_cast<double>(go.staging_saved_cycles);
      if (tr) {
        run_graph_nodes(rt, req.graph, go, tr, i, line.id());
        Scope s(tr, "host.runtime.submit", i, line.id(), "graph");
        rt.submit_graph(req.graph).get();
      }
      Scope s(tr, "serve.encode", i, line.id());
      record = serve::graph_record(req, go);
    } else {
      const char* fam = engine_family(req.desc);
      host::Outcome out;
      {
        Scope s(tr, "host.runtime.run", i, line.id(), fam);
        out = rt.run(req.desc);
        s.cycles(engine_cycles(out));
      }
      if (tr) {
        Scope s(tr, "host.runtime.submit", i, line.id(), fam);
        rt.submit(req.desc).get();
      }
      Scope s(tr, "serve.encode", i, line.id());
      record = serve::outcome_record(req, out);
    }
    return digest(record);
  }

  /// Each graph node run on its own, with its edge-fed operands taken from
  /// the graph's outcome: run_graph minus these is the graph layer's cost.
  static void run_graph_nodes(host::Runtime& rt, const host::GraphDesc& g,
                              const host::GraphOutcome& go, Tracer* tr,
                              u64 unit, long parent) {
    for (std::size_t n = 0; n < g.nodes.size(); ++n) {
      host::OpDesc d = g.nodes[n].desc;
      for (const host::GraphEdge& e : g.edges) {
        if (e.to != n) continue;
        const std::vector<double>* v = &go.nodes[e.from].values;
        switch (e.slot) {
          case host::OperandSlot::A: d.a = v; break;
          case host::OperandSlot::B: d.b = v; break;
          case host::OperandSlot::X: d.x = v; break;
        }
      }
      Scope s(tr, "host.runtime.run", unit, parent, engine_family(d));
      s.cycles(engine_cycles(rt.run(d)));
    }
  }

  /// No workload's shapes route to the single-FPGA PE array, so its
  /// engine.mm_array.* figures come from a fixed gemm_array n=32 probe.
  static void mm_array_probe(host::Runtime& rt, Tracer* tr) {
    Rng rng(32);
    const auto a = rng.matrix(32, 32);
    const auto b = rng.matrix(32, 32);
    for (unsigned i = 0; i < kSeedsPerShape; ++i) {
      Scope s(tr, "host.runtime.run", kLines + i, -1, "mm_array");
      s.cycles(engine_cycles(rt.run(host::OpDesc::gemm_array(a, b, 32))));
    }
  }

  void client_loop(unsigned c, const Budget& b, u64 deadline, Tracer* tr,
                   Tally& t) {
    Client& cl = clients_[c];
    std::size_t next = c * (kLines / kConnections);
    std::string reply;
    // Room for every sample up front: no reallocation copies, so the peak
    // RSS grows with the samples taken, not in doubling steps.
    t.latency_ms.reserve(1u << 18);
    while (!b.done(t.attempted, deadline)) {
      const std::size_t li = next++ % kLines;
      const u64 unit = (static_cast<u64>(c) << 32) | t.attempted;
      const u64 t0 = now_ns();
      bool io = false;
      {
        Scope s(tr, "serve.request", unit, -1, kShapes[li % kShapeCount]);
        io = cl.round_trip(lines_[li], reply);
      }
      const u64 t1 = now_ns();
      ++t.attempted;
      if (!io) {
        t.fail("connection " + std::to_string(c) + " lost");
        break;
      }
      const std::string err = last_str(reply, "error");
      if (!err.empty()) {
        t.fail("error record: " + err);
      } else if (digest(reply) != expected_[li]) {
        t.fail("reply differs from the local run: " + reply.substr(0, 120));
      } else {
        t.latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
    }
  }

  /// The transport measured on its own: every connection at once, in the
  /// same closed loop, sends a line with an unknown op, which the server
  /// answers with an error record from its reader thread without touching
  /// the runtime. A round trip is then framing, both connection threads and
  /// loopback, plus a parse that stops at the op name.
  void transport_probe(Tracer* tr, Tally& tally) {
    std::vector<Tally> per(kConnections);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        std::string reply;
        for (unsigned i = 0; i < kTransportProbes; ++i) {
          bool io = false;
          {
            Scope s(tr, "serve.transport_probe", (static_cast<u64>(c) << 32) | i);
            io = clients_[c].round_trip("nop\n", reply);
          }
          if (!io || last_str(reply, "error").empty()) {
            per[c].fail("transport probe: no error record on connection " +
                        std::to_string(c));
            break;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (Tally& t : per) tally.merge(std::move(t));
  }

  /// The server's own `stats` line: runtime queue-wait and exec p50s.
  void fetch_stats() {
    std::string rec;
    stats_ok_ = clients_[0].round_trip("stats\n", rec) &&
                num_after(rec, "queue_wait_p50_us", 0, queue_wait_p50_us_) &&
                num_after(rec, "exec_p50_us", 0, exec_p50_us_);
    const host::PlanCache& pc = server_->runtime().plan_cache();
    plan_lookups_ = pc.hits() + pc.misses();
    plan_hit_rate_ = plan_lookups_ ? static_cast<double>(pc.hits()) /
                                         static_cast<double>(plan_lookups_)
                                   : 0.0;
  }

  std::vector<std::string> lines_;  ///< newline-terminated request lines
  std::vector<Digest> expected_;
  double graph_saved_ = 0.0;

  std::unique_ptr<serve::Server> server_;
  std::thread serve_thread_;
  std::vector<Client> clients_;

  // From the last traced phase.
  u64 phase_requests_ = 0;
  u64 phase_bytes_ = 0;
  bool stats_ok_ = false;
  double queue_wait_p50_us_ = 0.0;
  double exec_p50_us_ = 0.0;
  u64 plan_lookups_ = 0;
  double plan_hit_rate_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_small(u64 seed, Tracer* tr) {
  return std::make_unique<ServeSmall>(seed, tr);
}

}  // namespace perfbench
