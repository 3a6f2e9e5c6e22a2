// xdblas_load: load generator + correctness checker for xdblas_serve
// (docs/serving.md).
//
//   xdblas_load --port P [--host H] [--conns N] [--ops M] [--graphs]
//               [--seed S] [--no-verify] [--out FILE] [--op NAME]
//   xdblas_load --self [--conns N] [--ops M] ...       # in-process server
//
// Opens N concurrent connections, streams the same deterministic mix of M
// op lines (dot/gemv/spmxv/gemm, plus fused graph records with --graphs)
// down each, and reads the response records back. Before touching the
// network it executes the identical lines sequentially on a local Runtime,
// so every response's `values_fnv` digest and simulated cycle count can be
// checked bit-for-bit against a single-threaded run — the protocol-level
// version of the runtime's determinism invariant. It then queries the
// server's `stats` control record for the host.runtime.* latency
// percentiles and emits one bench record (bench/bench_util.hpp):
// `cycles` is the deterministic per-connection workload total and the
// counters hold the op and response counts (all gated exactly by
// tools/bench_compare); `wall_ns` has one sample per connection, its ns per
// op; `info` carries ops/s and the server's p50/p95/p99. --self spins the
// server up in-process on an ephemeral port, which is how the bench_all
// target writes the serve_mixed row of BENCH.json.
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "serve/server.hpp"

using namespace xd;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xdblas_load (--port P | --self) [--host H] [--conns N]"
               " [--ops M]\n"
               "                   [--graphs] [--seed S] [--no-verify]"
               " [--out FILE] [--op NAME]\n"
               "                   [--max-inflight N]\n");
  return 2;
}

bool to_ll(const char* s, long long& out) {
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0' && errno != ERANGE && out >= 0;
}

/// The deterministic workload: one request line per op, mixed shapes. Every
/// connection sends this same set, so N-way concurrency is checked against
/// one local sequential execution of one set.
std::vector<std::string> make_lines(std::size_t ops, bool graphs, u64 seed) {
  std::vector<std::string> lines;
  lines.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const u64 s = seed + i;
    std::string l;
    if (graphs && i % 5 == 4) {
      l = cat("graph ap=gemv:n=96 pap=dot:n=96,b=@ap --from-dram --seed ", s);
    } else {
      switch (i % 4) {
        case 0: l = cat("dot --n 1024 --seed ", s); break;
        case 1: l = cat("gemv --n 96 --seed ", s); break;
        case 2: l = cat("spmxv --n 128 --nnz-per-row 8 --seed ", s); break;
        default: l = cat("gemm --n 32 --seed ", s); break;
      }
    }
    lines.push_back(std::move(l));
  }
  return lines;
}

std::string fnv_hex(u64 h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

struct Expected {
  bool error = false;   ///< the line is expected to answer with an error
  std::string fnv;      ///< record-level values_fnv (16 hex digits)
  u64 cycles = 0;       ///< record-level report cycles
};

/// Execute the workload once, sequentially, on a local Runtime with the
/// same (default) engine configuration the server runs.
std::vector<Expected> run_local(const std::vector<std::string>& lines) {
  host::ContextConfig base;
  host::Runtime rt(base);
  std::vector<Expected> exp;
  exp.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Expected e;
    serve::Request req;
    serve::parse_record(lines[i], i + 1, base, req);
    if (!req.parse_error.empty() || req.cfg_override) {
      e.error = true;
    } else if (req.is_graph) {
      const auto go = rt.run_graph(req.graph);
      u64 all = serve::kFnvBasis;
      for (const auto& node : go.nodes) all = serve::values_fnv(node.values, all);
      e.fnv = fnv_hex(all);
      e.cycles = go.report.cycles;
    } else {
      const auto out = rt.run(req.desc);
      e.fnv = fnv_hex(serve::values_fnv(out.values));
      e.cycles = out.report.cycles;
    }
    exp.push_back(std::move(e));
  }
  return exp;
}

/// Last `"key":"..."` string value in `rec`, or "" when absent.
std::string last_str(const std::string& rec, const std::string& key) {
  const std::string pat = cat("\"", key, "\":\"");
  const auto pos = rec.rfind(pat);
  if (pos == std::string::npos) return "";
  const auto start = pos + pat.size();
  const auto end = rec.find('"', start);
  return end == std::string::npos ? "" : rec.substr(start, end - start);
}

/// Numeric value of `"key":N` at/after `from`; false when absent.
bool num_after(const std::string& rec, const std::string& key,
               std::size_t from, double& out) {
  const std::string pat = cat("\"", key, "\":");
  const auto pos = rec.find(pat, from);
  if (pos == std::string::npos) return false;
  out = std::strtod(rec.c_str() + pos + pat.size(), nullptr);
  return true;
}

struct ConnResult {
  std::size_t responses = 0;
  std::size_t completed = 0;   ///< outcome records
  std::size_t errors = 0;      ///< error records other than "overloaded"
  std::size_t shed = 0;        ///< {"error":"overloaded"} records
  std::size_t mismatches = 0;  ///< digest or cycle disagreement
  bool io_ok = true;           ///< all lines sent, one response per record
  double ns = 0;               ///< connect to last response
};

void run_conn(const std::string& host, std::uint16_t port,
              const std::vector<std::string>& lines,
              const std::vector<Expected>& exp, bool verify, ConnResult& r) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    Socket sock = tcp_connect(host, port);
    std::string payload;
    for (const auto& l : lines) {
      payload += l;
      payload += '\n';
    }
    if (!sock.send_all(payload)) {
      r.io_ok = false;
      return;
    }
    sock.shutdown_write();  // server replies, then sees EOF and closes

    LineFramer framer(1 << 20);
    char buf[8192];
    std::string rec;
    bool truncated = false;
    while (r.responses < lines.size()) {
      const long got = sock.recv_some(buf, sizeof buf);
      if (got <= 0) break;
      framer.feed(buf, static_cast<std::size_t>(got));
      while (framer.next(rec, truncated)) {
        const std::size_t idx = r.responses++;
        const std::string err = last_str(rec, "error");
        if (err == "overloaded") {
          ++r.shed;
          continue;
        }
        if (!err.empty()) {
          ++r.errors;
          if (verify && idx < exp.size() && !exp[idx].error) ++r.mismatches;
          continue;
        }
        ++r.completed;
        if (!verify || idx >= exp.size()) continue;
        // Record-level digest/cycles: last values_fnv and the cycles of the
        // last (aggregate) report — identical extraction for op and graph
        // records.
        const std::string fnv = last_str(rec, "values_fnv");
        double cyc = 0;
        const auto rep = rec.rfind("\"report\":{");
        const bool have_cyc =
            rep != std::string::npos && num_after(rec, "cycles", rep, cyc);
        if (exp[idx].error || fnv != exp[idx].fnv || !have_cyc ||
            static_cast<u64>(cyc) != exp[idx].cycles) {
          ++r.mismatches;
        }
      }
    }
    if (r.responses != lines.size()) r.io_ok = false;
  } catch (const std::exception&) {
    r.io_ok = false;
  }
  r.ns = std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
             .count();
}

/// One `stats` round-trip on a fresh connection.
std::string fetch_stats(const std::string& host, std::uint16_t port) {
  Socket sock = tcp_connect(host, port);
  if (!sock.send_all(std::string_view("stats\n"))) return "";
  sock.shutdown_write();
  LineFramer framer(1 << 20);
  char buf[4096];
  std::string rec;
  bool truncated = false;
  for (;;) {
    const long got = sock.recv_some(buf, sizeof buf);
    if (got <= 0) return "";
    framer.feed(buf, static_cast<std::size_t>(got));
    if (framer.next(rec, truncated)) return rec;
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fflush(f) == 0 && ok;
  if (ok && ::fsync(::fileno(f)) != 0 &&
      errno != EINVAL && errno != ENOTSUP && errno != ENOTTY) {
    ok = false;
  }
  return (std::fclose(f) == 0) && ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool self = false, graphs = false, verify = true;
  std::size_t conns = 4, ops = 16, max_inflight = 256;
  u64 seed = 2005;
  std::string out_path, op_name = "serve_mixed";

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    long long n = 0;
    if (flag == "--host" && val) {
      host = val;
      ++i;
    } else if (flag == "--port" && val && to_ll(val, n) && n <= 65535) {
      port = static_cast<std::uint16_t>(n);
      ++i;
    } else if (flag == "--conns" && val && to_ll(val, n) && n > 0) {
      conns = static_cast<std::size_t>(n);
      ++i;
    } else if (flag == "--ops" && val && to_ll(val, n) && n > 0) {
      ops = static_cast<std::size_t>(n);
      ++i;
    } else if (flag == "--max-inflight" && val && to_ll(val, n) && n > 0) {
      max_inflight = static_cast<std::size_t>(n);
      ++i;
    } else if (flag == "--seed" && val && to_ll(val, n)) {
      seed = static_cast<u64>(n);
      ++i;
    } else if (flag == "--out" && val) {
      out_path = val;
      ++i;
    } else if (flag == "--op" && val) {
      op_name = val;
      ++i;
    } else if (flag == "--self") {
      self = true;
    } else if (flag == "--graphs") {
      graphs = true;
    } else if (flag == "--no-verify") {
      verify = false;
    } else {
      std::fprintf(stderr, "error: bad flag/value at '%s'\n", flag.c_str());
      return usage();
    }
  }
  if (!self && port == 0) {
    std::fprintf(stderr, "error: need --port (or --self)\n");
    return usage();
  }

  try {
    // --self: in-process server on an ephemeral loopback port.
    std::unique_ptr<serve::Server> server;
    std::thread server_thread;
    if (self) {
      serve::ServerConfig scfg;
      scfg.max_inflight = max_inflight;
      server = std::make_unique<serve::Server>(scfg);
      port = server->port();
      server_thread = std::thread([&] { server->serve(); });
    }

    const auto lines = make_lines(ops, graphs, seed);
    const auto exp = verify ? run_local(lines) : std::vector<Expected>{};
    u64 workload_cycles = 0;
    for (const auto& e : exp) workload_cycles += e.cycles;

    std::vector<ConnResult> results(conns);
    std::vector<std::thread> threads;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        run_conn(host, port, lines, exp, verify, results[c]);
      });
    }
    for (auto& t : threads) t.join();
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    ConnResult total;
    bench::WallNs wall;
    for (const auto& r : results) {
      total.responses += r.responses;
      total.completed += r.completed;
      total.errors += r.errors;
      total.shed += r.shed;
      total.mismatches += r.mismatches;
      total.io_ok = total.io_ok && r.io_ok;
      wall.ns.push_back(r.ns / static_cast<double>(ops));
    }

    const std::string stats = fetch_stats(host, port);
    double p50 = 0, p95 = 0, p99 = 0, shed_srv = 0;
    num_after(stats, "e2e_p50_us", 0, p50);
    num_after(stats, "e2e_p95_us", 0, p95);
    num_after(stats, "e2e_p99_us", 0, p99);
    num_after(stats, "shed", 0, shed_srv);
    double plan_hit_rate = 0, plan_pinned = 0, steals = 0, local_pops = 0;
    num_after(stats, "plan_hit_rate", 0, plan_hit_rate);
    num_after(stats, "plan_pinned", 0, plan_pinned);
    num_after(stats, "pool_steals", 0, steals);
    num_after(stats, "pool_local_pops", 0, local_pops);

    if (self) {
      server->drain();
      server_thread.join();
    }

    const bool bits_equal =
        total.io_ok && (!verify || total.mismatches == 0);
    const double ops_per_sec =
        wall_s > 0 ? static_cast<double>(total.completed) / wall_s : 0.0;

    const std::string rec =
        bench::record_json({op_name,
                            workload_cycles,
                            bits_equal,
                            wall,
                            {{"conns", conns},
                             {"ops", ops * conns},
                             {"completed", total.completed},
                             {"errors", total.errors},
                             {"shed", total.shed},
                             {"server_shed", shed_srv}},
                            {{"ops_per_sec", ops_per_sec},
                             {"p50_us", p50},
                             {"p95_us", p95},
                             {"p99_us", p99},
                             {"plan_hit_rate", plan_hit_rate},
                             {"plan_pinned", plan_pinned},
                             {"pool_steals", steals},
                             {"pool_local_pops", local_pops}}}) +
        "\n";
    if (out_path.empty()) {
      std::fputs(rec.c_str(), stdout);
      if (std::fflush(stdout) != 0) return 1;
    } else if (!write_file(out_path, rec)) {
      std::fprintf(stderr, "error: write to '%s' failed\n", out_path.c_str());
      return 1;
    }

    std::fprintf(stderr,
                 "xdblas_load: %zu conns x %zu ops in %.2fs — "
                 "%.0f ops/s, p50 %.0fus p99 %.0fus, %zu errors, %zu shed, "
                 "plan hit %.0f%% (%.0f pinned), pool %.0f local/%.0f "
                 "stolen%s\n",
                 conns, ops, wall_s, ops_per_sec, p50, p99, total.errors,
                 total.shed, 100.0 * plan_hit_rate, plan_pinned, local_pops,
                 steals, bits_equal ? "" : " [MISMATCH]");
    return bits_equal ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
