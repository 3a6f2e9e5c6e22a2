// xdblas command-line runner: drive any of the simulated designs from the
// shell and get a paper-style report, without writing C++.
//
//   xdblas_cli dot    --n 4096 [--k 2]  [--bw-gbs 5.5] [--from-dram]
//   xdblas_cli gemv   --n 1024 [--k 4]  [--from-dram] [--arch tree|col]
//   xdblas_cli gemm   --n 256  [--k 8] [--m 8] [--b 64] [--l 1]
//   xdblas_cli spmxv  --n 1024 [--nnz-per-row 16] [--k 4]
//   xdblas_cli reduce --sets 200 --size 512 [--alpha 14]
//   xdblas_cli explore [--device XC2VP100]
//   xdblas_cli batch FILE [--out FILE]
//   xdblas_cli tune <op> [--n N] [--rows R --cols C] [--batch B]
//                        [--nnz-per-row Z] [--l L] [--arch tree|col]
//                        [--policy model|probe] [--banks B] [--from-dram]
//
// An op command (dot, gemv, gemm, spmxv) is a one-line batch: the command
// line minus its telemetry options is parsed by the batch grammar, with its
// problem-size bounds (serve/proto.hpp), and runs through host::Runtime on
// the line's engine config. A line the grammar rejects is an argument
// error (usage, exit 2).
//
// Tune mode runs the design autotuner (host/tuner.hpp) for one op+shape and
// prints the ranked candidate table: every enumerated design with its
// modeled area, clock, latency and bandwidth need, why the infeasible ones
// were pruned, and which design won. <op> is an op kind name (dot, gemv,
// gemm, gemm_multi, spmxv, ...). No operands are built — tuning is a pure
// function of the shape and machine model, so huge shapes are fine.
//
// Batch mode reads one op per line (dot / gemv / gemm / spmxv with the same
// flags as above; '#' comments and blank lines skipped), submits every job
// through the host runtime so independent simulations run concurrently on
// the worker pool, and prints one JSON record per job (JSONL) in input
// order — to stdout, or to --out FILE.
//
// A batch line may also be an op *graph* (a fused DAG plan — see
// docs/runtime.md "Graph plans & fusion"):
//
//   graph ap=gemv:n=96 pap=dot:n=96,b=@ap --from-dram [--seed S]
//
// Node specs (`name=kind[:key=val,...]`) come first, flags last. Kinds are
// dot (keys n, a, b), gemv (n, arch, x), and spmxv (n, nnz, x); an operand
// key whose value is `@name` feeds the named earlier node's result through
// a graph edge (the planner keeps the intermediate SRAM-resident when it
// fits), other operands are materialized from the line's seed, and keep=0
// marks a node as intermediate-only. The record carries one named result
// per node plus the fusion counters (fused_edges, shared_operands,
// staging_saved_cycles) and the aggregate report; a malformed graph —
// unknown ref, shape-mismatched edge, cycle — fails that line with a
// per-line "error" record and a nonzero exit, like any other batch error.
//
// Telemetry options (all commands):
//   --json               machine-readable report + phase spans + metrics on
//                        stdout instead of the human-readable table
//   --metrics-out FILE   write the metrics registry (.csv => CSV, else JSON)
//   --trace-out FILE     write a Chrome trace_event JSON (chrome://tracing /
//                        Perfetto); also enables event tracing in the run
//   --trace-filter STR   keep only trace events whose source contains STR
//   --flight-out FILE    write the flight recorder (last-N per-op trace
//                        contexts) as JSON; also dumped to stderr when a
//                        run dies with an error
//
// In batch mode the telemetry session is shared by every concurrent job:
// worker shards merge into it at op completion, so the metrics/trace/flight
// exports cover the whole batch and the Chrome trace shows one track per
// pool worker.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "xdblas.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "serve/proto.hpp"
#include "telemetry/export.hpp"
#include "telemetry/json.hpp"

using namespace xd;

namespace {

/// A malformed command line (junk flag value, overflowing number, ...).
/// Distinct from ConfigError so main() can answer with the usage text and
/// exit code 2, the argument-error convention — a simulation that *ran* and
/// failed still exits 1.
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

struct Args {
  std::string command;
  std::string line;  ///< op commands: the batch line to run
  std::map<std::string, std::string> kv;
  bool flag(const std::string& name) const { return kv.count(name) > 0; }
  /// Validated non-negative integer; rejects junk like "--n -4" or "--n x"
  /// and values that overflow long long (e.g. --n 99999999999999999999).
  long long integer(const std::string& name, long long dflt) const {
    const auto it = kv.find(name);
    if (it == kv.end()) return dflt;
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
      throw UsageError(cat("--", name, " expects an integer, got '",
                           it->second, "'"));
    }
    if (v < 0) {
      throw UsageError(cat("--", name, " must be non-negative, got ", v));
    }
    return v;
  }
  std::string str(const std::string& name, const std::string& dflt) const {
    const auto it = kv.find(name);
    return it == kv.end() ? dflt : it->second;
  }
};

/// Per-process flags, valid for every command: the telemetry sinks.
const std::set<std::string> kProcessFlags = {
    "json", "metrics-out", "trace-out", "trace-filter", "flight-out"};

/// Flags that take no value; every other flag requires one.
const std::set<std::string> kBoolFlags = {"json", "from-dram"};

/// Commands whose line is one batch record (serve::parse_record).
const std::set<std::string> kOpCommands = {"dot", "gemv", "gemm", "spmxv"};

const std::map<std::string, std::set<std::string>> kCommandFlags = {
    {"reduce", {"sets", "size", "alpha", "seed"}},
    {"explore", {"device", "seed"}},
    {"batch", {"out", "seed"}},
    {"tune",
     {"n", "rows", "cols", "batch", "nnz-per-row", "l", "arch", "policy",
      "banks", "from-dram", "seed"}},
};

int usage() {
  std::fprintf(stderr,
               "usage: xdblas_cli <dot|gemv|gemm|spmxv|reduce|explore> "
               "[--n N] [--k K] ...\n"
               "       xdblas_cli batch FILE [--out FILE]\n"
               "       xdblas_cli tune <op> [--n N] [--rows R --cols C] "
               "[--l L] [--policy model|probe] [--banks B]\n"
               "       common flags: --seed S --json --metrics-out FILE "
               "--trace-out FILE --trace-filter STR --flight-out FILE\n"
               "       (see the file header for per-command options)\n");
  return 2;
}

/// Parse `--flag [value]` tokens into a.kv against an allowed-flag set;
/// returns false (after an stderr diagnostic) on an unknown flag, a stray
/// positional, or a missing value.
bool parse_flags(const std::vector<std::string>& tokens,
                 const std::string& command,
                 const std::set<std::string>& allowed, Args& a) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n",
                   tokens[i].c_str());
      return false;
    }
    const std::string key = tokens[i].substr(2);
    if (!kProcessFlags.count(key) && !allowed.count(key)) {
      std::fprintf(stderr, "error: unknown flag '--%s' for command '%s'\n",
                   key.c_str(), command.c_str());
      return false;
    }
    if (kBoolFlags.count(key)) {
      static const std::string kSet = "1";
      a.kv.insert_or_assign(key, kSet);
    } else if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      a.kv[key] = tokens[++i];
    } else {
      std::fprintf(stderr, "error: flag '--%s' expects a value\n", key.c_str());
      return false;
    }
  }
  return true;
}

/// Parse argv; returns false (after an stderr diagnostic) on an unknown
/// command, unknown flag, or stray positional argument.
bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) {
    std::fprintf(stderr, "error: no command given\n");
    return false;
  }
  a.command = argv[1];
  if (kOpCommands.count(a.command)) {
    // The telemetry flags (and their values) stay here; every other token
    // belongs to the batch line, which run_op parses.
    std::vector<std::string> process;
    a.line = a.command;
    for (int i = 2; i < argc; ++i) {
      const std::string tok = argv[i];
      if (tok.rfind("--", 0) != 0 || !kProcessFlags.count(tok.substr(2))) {
        a.line += ' ' + tok;
        continue;
      }
      process.push_back(tok);
      if (!kBoolFlags.count(tok.substr(2)) && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        process.emplace_back(argv[++i]);
      }
    }
    return parse_flags(process, a.command, {}, a);
  }
  const auto cmd = kCommandFlags.find(a.command);
  if (cmd == kCommandFlags.end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n", a.command.c_str());
    return false;
  }
  int first_flag = 2;
  if (a.command == "batch") {
    // One positional argument: the op file.
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: batch expects a file argument\n");
      return false;
    }
    a.kv["file"] = argv[2];
    first_flag = 3;
  } else if (a.command == "tune") {
    // One positional argument: the op kind to tune.
    if (argc < 3 || std::string(argv[2]).rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: tune expects an op argument (dot, gemv, "
                           "gemm, ...)\n");
      return false;
    }
    a.kv["op"] = argv[2];
    first_flag = 3;
  }
  std::vector<std::string> tokens(argv + first_flag, argv + argc);
  return parse_flags(tokens, a.command, cmd->second, a);
}

void print_report(const host::PerfReport& r) {
  std::printf("design      : %s\n", r.design.c_str());
  std::printf("cycles      : %llu", static_cast<unsigned long long>(r.cycles));
  if (r.staging_cycles) {
    std::printf(" (staging %llu)",
                static_cast<unsigned long long>(r.staging_cycles));
  }
  std::printf("\nlatency     : %.4f ms at %.0f MHz\n", r.seconds() * 1e3,
              r.clock_mhz);
  std::printf("sustained   : %.1f MFLOPS (%.3f flops/cycle)\n",
              r.sustained_mflops(), r.flops_per_cycle());
  if (r.sram_words > 0) {
    std::printf("SRAM traffic: %.0f words (%.2f GB/s)\n", r.sram_words,
                r.sram_bytes_per_s() / 1e9);
  }
  if (r.dram_words > 0) {
    std::printf("DRAM traffic: %.0f words (%.1f MB/s)\n", r.dram_words,
                r.dram_bytes_per_s() / 1e6);
  }
  std::printf("stalls      : %llu\n",
              static_cast<unsigned long long>(r.stall_cycles));
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n", path.c_str());
    return false;
  }
  // Flush stdio's buffer AND push the page cache to the device before
  // reporting success: a deferred ENOSPC (e.g. /dev/full) must flip the exit
  // code, not silently leave a truncated artifact that passes a fixture.
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fflush(f) == 0 && ok;
  if (ok && ::fsync(::fileno(f)) != 0 &&
      errno != EINVAL && errno != ENOTSUP && errno != ENOTTY) {
    ok = false;  // EINVAL/ENOTSUP/ENOTTY: pipes and special files can't sync
  }
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) std::fprintf(stderr, "error: write to '%s' failed\n", path.c_str());
  return ok;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Emit the requested telemetry outputs; `report` may be null (reduce /
/// explore have no PerfReport). Returns false if any file write failed.
bool finish(const Args& args, telemetry::Session& tel,
            const host::PerfReport* report) {
  if (args.flag("json")) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("command", args.command);
    if (report) {
      w.key("report");
      w.raw(telemetry::report_to_json(*report));
    }
    // Per-phase cycle totals (first-appearance order), then the raw spans.
    w.key("phases");
    w.begin_object();
    std::set<std::string> seen;
    for (const auto& s : tel.spans().spans()) {
      if (seen.insert(s.name).second) {
        w.kv(s.name, tel.spans().total_cycles(s.name));
      }
    }
    w.end_object();
    w.key("spans");
    w.raw(telemetry::spans_to_json(tel.spans()));
    w.key("metrics");
    w.raw(telemetry::metrics_to_json(tel.metrics()));
    w.end_object();
    std::printf("%s\n", w.str().c_str());
  }

  bool ok = true;
  if (args.flag("metrics-out")) {
    const std::string path = args.str("metrics-out", "");
    const std::string text = ends_with(path, ".csv")
                                 ? telemetry::metrics_to_csv(tel.metrics())
                                 : telemetry::metrics_to_json(tel.metrics());
    ok = write_file(path, text) && ok;
  }
  if (args.flag("trace-out")) {
    const double clock = report ? report->clock_mhz : 0.0;
    ok = write_file(args.str("trace-out", ""),
                    telemetry::chrome_trace_json(tel, clock,
                                                 args.str("trace-filter", ""))) &&
         ok;
  }
  if (args.flag("flight-out")) {
    ok = write_file(args.str("flight-out", ""),
                    telemetry::flight_to_json(tel.flight())) &&
         ok;
  }
  return ok;
}

/// One batch job: the parsed request (which owns the operands) plus the
/// per-job Runtime honoring the line's engine knobs and the pending future.
/// Lives in a deque so addresses stay stable while later lines parse.
struct BatchJob {
  serve::Request req;
  std::optional<host::Runtime> rt;
  std::future<host::Outcome> fut;
  std::future<host::GraphOutcome> gfut;
};

/// `xdblas_cli batch FILE`: parse every line with the shared serve codec
/// (serve/proto.hpp — the same grammar and bounds xdblas_serve speaks),
/// submit them all through the runtime (independent simulations run
/// concurrently on the process-wide worker pool), then emit one JSON record
/// per job in input order. Unlike the server, the CLI honors per-line
/// engine knobs (--k/--b/...) by giving each job its own Runtime.
int run_batch(const Args& args) {
  const std::string path = args.str("file", "");
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    return 1;
  }

  // One shared session for the whole batch when any telemetry output was
  // requested: concurrent jobs merge their worker shards into it, so the
  // exports aggregate every op and the Chrome trace gets per-worker tracks.
  const bool want_tel = args.flag("json") || args.flag("metrics-out") ||
                        args.flag("trace-out") || args.flag("flight-out");
  telemetry::Session session;
  if (args.flag("trace-out")) session.trace().set_enabled(true);

  const host::ContextConfig base;  // line flags land in each req.cfg
  std::deque<BatchJob> jobs;  // deque: stable addresses for OpDesc pointers
  std::string line;
  bool truncated = false;
  std::size_t line_no = 0;
  while (serve::read_bounded_line(in, line, truncated)) {
    ++line_no;
    if (!truncated && !serve::is_record_line(line)) continue;
    BatchJob& job = jobs.emplace_back();
    if (truncated) {
      // The bounded reader consumed the oversized tail; the record is
      // answered (and failed) without ever buffering the whole line.
      job.req.line = line_no;
      job.req.parse_error = serve::oversize_error();
      continue;
    }
    serve::parse_record(line, line_no, base, job.req);
  }

  for (auto& job : jobs) {
    if (!job.req.parse_error.empty()) continue;  // emitted as error record
    host::ContextConfig cfg = job.req.cfg;
    if (want_tel) cfg.telemetry = &session;  // shards merge on completion
    job.rt.emplace(cfg);
    if (job.req.is_graph) {
      job.gfut = job.rt->submit_graph(job.req.graph);
    } else {
      job.fut = job.rt->submit(job.req.desc);
    }
  }

  std::string out;
  int rc = 0;
  for (auto& job : jobs) {
    try {
      if (!job.req.parse_error.empty()) throw ConfigError(job.req.parse_error);
      out += job.req.is_graph ? serve::graph_record(job.req, job.gfut.get())
                              : serve::outcome_record(job.req, job.fut.get());
    } catch (const std::exception& e) {
      out += serve::error_record(job.req, e.what());
      rc = 1;
    }
    out += '\n';
  }

  if (args.flag("out")) {
    if (!write_file(args.str("out", ""), out)) return 1;
  } else {
    std::fputs(out.c_str(), stdout);
    if (std::fflush(stdout) != 0) rc = rc ? rc : 1;
  }
  if (want_tel) {
    // Batch --json appends one aggregate summary record after the per-job
    // JSONL records (the writer emits a single line, keeping stdout JSONL).
    if (!finish(args, session, nullptr)) return 1;
  }
  return rc;
}

/// `xdblas_cli dot|gemv|gemm|spmxv ...`: parse the op's batch line and run
/// it on a Runtime built from the line's config; returns the op's report.
/// A line the grammar rejects (junk value, unknown flag, an operand beyond
/// ParseLimits) is an argument error.
host::PerfReport run_op(const Args& args, telemetry::Session& session) {
  serve::Request req;
  serve::parse_record(args.line, 1, host::ContextConfig{}, req);
  if (!req.parse_error.empty()) throw UsageError(req.parse_error);
  host::ContextConfig cfg = req.cfg;
  cfg.telemetry = &session;
  const host::Outcome out = host::Runtime(cfg).run(req.desc);
  if (!args.flag("json")) {
    if (req.command == "dot") {
      std::printf("dot(%zu) = %.12g\n", req.n, out.values.at(0));
    } else if (req.command == "spmxv") {
      const blas2::CrsMatrix& m = *req.desc.sparse;
      std::printf("spmxv %zux%zu, nnz=%zu (density %.2f%%)\n", m.rows, m.cols,
                  m.nnz(), 100.0 * m.density());
    }
  }
  return out.report;
}

/// `xdblas_cli tune <op>`: run the design autotuner for one op+shape and
/// print the ranked candidate table (or, with --json, a machine-readable
/// record of every candidate).
int run_tune(const Args& args) {
  host::OpKind kind;
  if (!host::op_kind_from_name(args.str("op", ""), kind)) {
    throw UsageError(cat("unknown op '", args.str("op", ""),
                         "' (try dot, gemv, gemm, gemm_array, gemm_multi, "
                         "spmxv)"));
  }

  host::ContextConfig cfg;
  cfg.sram_banks = static_cast<unsigned>(args.integer("banks", 4));
  cfg.mm_l = static_cast<unsigned>(args.integer("l", 1));

  host::PlanKey key;
  key.kind = kind;
  const auto n = static_cast<std::size_t>(args.integer("n", 1024));
  key.n = n;
  key.rows = static_cast<std::size_t>(args.integer("rows", static_cast<long long>(n)));
  key.cols = static_cast<std::size_t>(args.integer("cols", static_cast<long long>(n)));
  key.batch = static_cast<std::size_t>(args.integer("batch", 0));
  key.placement = args.flag("from-dram") ? host::Placement::Dram
                                         : host::Placement::Sram;
  if (!host::gemv_arch_from_name(args.str("arch", "tree"), key.arch)) {
    throw UsageError(cat("--arch expects tree or col, got '",
                         args.str("arch", "tree"), "'"));
  }
  if (!host::tune_policy_from_name(args.str("policy", "model"), key.tune) ||
      key.tune == host::TunePolicy::Fixed) {
    throw UsageError(cat("--policy expects 'model' or 'probe', got '",
                         args.str("policy", "model"), "'"));
  }

  const host::TuneResult tr = host::tune_op(cfg, key);

  if (args.flag("json")) {
    telemetry::JsonWriter w;
    w.begin_object();
    w.kv("command", args.command);
    w.kv("op", host::op_kind_name(kind));
    w.kv("policy", host::tune_policy_name(key.tune));
    w.kv("considered", static_cast<u64>(tr.considered));
    w.kv("feasible", static_cast<u64>(tr.feasible));
    w.kv("pruned", static_cast<u64>(tr.pruned));
    w.kv("probed", static_cast<u64>(tr.probed));
    w.kv("winner", tr.winner() ? tr.winner()->name() : std::string());
    w.key("candidates");
    w.begin_array();
    for (const auto& c : tr.ranked) {
      w.begin_object();
      w.kv("design", c.name());
      w.kv("feasible", c.feasible);
      w.kv("chosen", c.chosen);
      w.kv("slices", static_cast<u64>(c.area.slices));
      w.kv("clock_mhz", c.area.clock_mhz);
      w.kv("bram_words", c.bram_words);
      w.kv("model_cycles", c.model_cycles);
      w.kv("model_seconds", c.model_seconds);
      w.kv("required_words_per_cycle", c.required_words_per_cycle);
      if (c.probe_cycles > 0) w.kv("probe_cycles", c.probe_cycles);
      if (!c.why_not.empty()) w.kv("why_not", c.why_not);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return tr.winner() ? 0 : 1;
  }

  std::printf("tune %s (%s): %zu candidates, %zu feasible, %zu pruned",
              host::op_kind_name(kind), host::tune_policy_name(key.tune),
              tr.considered, tr.feasible, tr.pruned);
  if (tr.probed > 0) {
    std::printf(", %zu probed (%llu sim cycles)", tr.probed,
                static_cast<unsigned long long>(tr.probe_cycles));
  }
  std::printf("\n");
  TextTable table({"design", "status", "slices", "MHz", "cycles", "ms",
                   "words/cyc", "note"});
  for (const auto& c : tr.ranked) {
    table.row(c.name(),
              c.chosen ? "WINNER" : (c.feasible ? "ok" : "pruned"),
              static_cast<u64>(c.area.slices), TextTable::num(c.area.clock_mhz, 1),
              c.model_cycles, TextTable::num(c.model_seconds * 1e3, 4),
              TextTable::num(c.required_words_per_cycle, 3), c.why_not);
  }
  std::printf("%s", table.render().c_str());
  if (!tr.winner()) {
    std::fprintf(stderr, "error: no feasible design\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return usage();

  // One session serves all sinks (declared outside the try so the flight
  // recorder survives into the error handler for a post-mortem dump).
  telemetry::Session session;
  try {
    if (args.command == "batch") return run_batch(args);
    if (args.command == "tune") return run_tune(args);
    // Event tracing only turns on when a trace file was requested (emit
    // sites build strings the fast path avoids).
    if (args.flag("trace-out")) session.trace().set_enabled(true);
    const bool json = args.flag("json");

    host::PerfReport report;
    bool have_report = false;

    if (kOpCommands.count(args.command)) {
      report = run_op(args, session);
      have_report = true;
    } else if (args.command == "reduce") {
      const std::size_t sets = static_cast<std::size_t>(args.integer("sets", 200));
      const std::size_t size = static_cast<std::size_t>(args.integer("size", 512));
      const unsigned alpha = static_cast<unsigned>(args.integer("alpha", 14));
      require(sets >= 1 && size >= 1, "reduce needs --sets >= 1 and --size >= 1");
      Rng rng(static_cast<u64>(args.integer("seed", 2005)));
      reduce::ReductionCircuit c(alpha);
      if (session.trace().enabled()) c.attach_trace(&session.trace());
      std::size_t done = 0, si = 0, ei = 0;
      u64 cycles = 0;
      while (done < sets) {
        std::optional<reduce::Input> in;
        if (si < sets) {
          in = reduce::Input{fp::to_bits(rng.uniform(-1, 1)), ei + 1 == size};
        }
        const bool consumed = c.cycle(in);
        ++cycles;
        if (in && consumed && ++ei == size) {
          ei = 0;
          ++si;
        }
        if (c.take_result()) ++done;
      }
      session.phase("compute", cycles);
      c.publish(session.metrics(), "reduce.cli");
      if (!json) {
        std::printf("reduced %zu sets of %zu in %llu cycles "
                    "(inputs %zu, tail %llu, bound 2a^2 = %u)\n",
                    sets, size, static_cast<unsigned long long>(cycles),
                    sets * size,
                    static_cast<unsigned long long>(cycles - sets * size),
                    2 * alpha * alpha);
        std::printf("stalls %llu, peak buffer %zu (bound %u), adder util %.1f%%\n",
                    static_cast<unsigned long long>(c.stats().stall_cycles),
                    c.stats().peak_buffer_words, alpha * alpha,
                    100.0 * c.adder_utilization());
      }
    } else if (args.command == "explore") {
      const auto dev = machine::device_by_name(args.str("device", "XC2VP50"));
      machine::AreaModel area;
      std::printf("%s: %u slices, %llu BRAM words; max GEMM PEs %u "
                  "(standalone) / %u (XD1)\n",
                  dev.name.c_str(), dev.slices,
                  static_cast<unsigned long long>(dev.bram_words()),
                  area.max_mm_pes(dev, false), area.max_mm_pes(dev, true));
      for (const auto& p : model::figure9(area, dev)) {
        std::printf("  k=%2u: %5u slices, %.0f MHz, %.2f GFLOPS\n", p.k,
                    p.slices, p.clock_mhz, p.gflops);
      }
    }

    if (have_report && !json) print_report(report);
    if (!finish(args, session, have_report ? &report : nullptr)) return 1;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    // Post-mortem: the ops leading up to the failure, to stderr and (when
    // requested) the --flight-out file.
    if (session.flight().total() > 0) {
      const std::string dump = telemetry::flight_to_json(session.flight());
      std::fprintf(stderr, "flight recorder: %s\n", dump.c_str());
      if (args.flag("flight-out")) {
        write_file(args.str("flight-out", ""), dump);
      }
    }
    return 1;
  }
  return 0;
}
