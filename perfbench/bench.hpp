// Shared pieces of the xdblas benchmark: the in-memory span tracer, the
// per-phase tally, process-cost counters and the workload interface.
//
// The benchmark runs one workload per process (perfbench/main.cpp). A run
// sets the workload up several times, runs one untimed cycle of its input
// pool, then measures it for a fixed time:
//
//   --trace 0  untraced; the end-to-end metrics come from this run.
//   --trace 1  an untraced half (for the tracing overhead), a traced half
//              whose spans give the per-layer metrics, then a short traced
//              probe of each other workload for the layers this one never
//              reaches (e.g. serve.* on cg_solve).
//
// Spans are recorded only around calls the benchmark itself makes into the
// library's public functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>

#include "host/op.hpp"

namespace perfbench {

using u64 = std::uint64_t;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// One timed call. `tag` refines the name (an engine family, a graph kind,
/// a shard variant); `cycles` is the simulated cycle count the call reported.
struct Span {
  const char* name = "";
  const char* tag = "";
  u64 start_ns = 0;
  u64 end_ns = 0;
  long parent = -1;  ///< index of the enclosing span, -1 for a root
  u64 unit = 0;      ///< the unit (request, solve, sharded op) it belongs to
  u64 cycles = 0;
  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

/// Thread-safe span store, kept in memory and written out when the run ends.
class Tracer {
 public:
  long open(const char* name, u64 unit, long parent = -1, const char* tag = "");
  void close(long id, u64 cycles = 0);
  std::vector<Span> spans() const;
  /// One JSON object per span. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tr, const char* name, u64 unit, long parent = -1,
        const char* tag = "")
      : tr_(tr), id_(tr ? tr->open(name, unit, parent, tag) : -1) {}
  ~Scope() {
    if (tr_) tr_->close(id_, cycles_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  long id() const { return id_; }
  void cycles(u64 c) { cycles_ = c; }

 private:
  Tracer* tr_;
  long id_;
  u64 cycles_ = 0;
};

/// Aggregate of the spans matching a name (and tag, when given).
struct SpanStats {
  std::size_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;  ///< total minus the time covered by child spans
  u64 cycles = 0;
  double mean_us() const { return count ? total_us / count : 0.0; }
  double mean_self_us() const { return count ? self_us / count : 0.0; }
};
SpanStats span_stats(const std::vector<Span>& spans, std::string_view name,
                     std::string_view tag = {});

/// getrusage(RUSAGE_SELF) snapshot; differences give per-unit process cost.
struct ProcCost {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  double minflt = 0.0;
  double ctx_switches = 0.0;  ///< voluntary + involuntary
  static ProcCost now();
  ProcCost operator-(const ProcCost& o) const;
};
/// The process's high-water RSS, in MiB.
double peak_rss_mb();

/// What one measured phase did. Clients merge their own tallies into this.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<double> latency_ms;  ///< per completed unit, timed by the caller
  double wall_s = 0.0;
  /// Wall time a traced phase spent in layer probes between units; not part
  /// of any unit and excluded from throughput.
  double probe_s = 0.0;
  ProcCost cost;                   ///< process cost over the phase
  std::vector<std::string> failures;  ///< the first few failure reasons

  void fail(std::string why);
  void merge(Tally&& o);
  /// Completed units per second of wall clock, probes excluded.
  double throughput() const;
};

/// Percentile (linear interpolation, q in [0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// How long a phase runs: exactly `units` units when nonzero (a warm-up
/// cycle of the input pool, or a probe), otherwise for `seconds`.
struct Budget {
  double seconds = 0.0;
  u64 units = 0;

  u64 deadline() const { return now_ns() + static_cast<u64>(seconds * 1e9); }
  bool done(u64 attempted, u64 deadline) const {
    return units ? attempted >= units : now_ns() >= deadline;
  }
};

/// Moves the calling thread round the CPUs of its affinity mask, one per
/// next(), and restores the mask when it goes. On a shared host each vCPU
/// runs fast or about 1.7x slower for seconds at a time, independently of
/// the others, and a thread left alone stays on one vCPU; rotating makes a
/// run sample all of them. A no-op with fewer than two CPUs or when the mask
/// cannot be read. Threads started while it pins the caller inherit the
/// one-CPU mask, so it must not be active while long-lived threads start.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

 private:
  cpu_set_t saved_{};  ///< the caller's mask on entry
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

using Metrics = std::map<std::string, double>;

/// One term of the layer sum: a layer's self time per unit.
struct LayerPart {
  std::string name;
  double us_per_unit = 0.0;
  /// End-to-end time minus measured terms; printed, left out of the sum.
  bool residual = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Drop what setup() built, untimed, so the next setup() starts cold.
  virtual void teardown() = 0;
  /// One set-up, timed by the caller: construct the program's pieces and
  /// build the first plan of every shape.
  virtual void setup(Tracer* tr) = 0;
  /// Run units until the budget is spent, checking every output.
  virtual void run(const Budget& budget, Tracer* tr, Tally& tally) = 0;
  /// Units in one cycle of the workload's input pool.
  virtual u64 pool_size() const = 0;
  /// Exact counts that must repeat for the same seed and code; includes
  /// "sim_cycles_per_op". Valid once a whole pool cycle has run.
  virtual Metrics fingerprint() const = 0;
  /// Per-layer metrics and the layer-sum terms from a traced phase.
  virtual void layers(const std::vector<Span>& spans, const Tally& traced,
                      Metrics& out, std::vector<LayerPart>& parts) = 0;
};

/// Each factory generates the workload's inputs from `seed`. `tr` records
/// the spans of any reference pass the constructor runs (null: untraced).
std::unique_ptr<Workload> make_serve_small(u64 seed, Tracer* tr);
std::unique_ptr<Workload> make_cg_solve(u64 seed);
std::unique_ptr<Workload> make_sharded(u64 seed);

/// Engine families, as span tags, for the engine.<family>.* metrics.
inline constexpr const char* kEngineFamilies[] = {"dot", "gemv_tree", "spmxv",
                                                  "mm_array", "mm_hier"};
/// The family an op descriptor runs on (under the default fixed plans).
const char* engine_family(const xd::host::OpDesc& desc);
/// Engine cycles of one run: its compute phase, so that DRAM staging, which
/// the simulator charges analytically, does not dilute ns per cycle.
u64 engine_cycles(const xd::host::Outcome& out);
/// engine.<family>.ns_per_cycle and engine.<family>.cycles (mean per call)
/// from the host.runtime.run spans tagged with each family.
void engine_metrics(const std::vector<Span>& spans, Metrics& out);

/// Resolve the FP backend afresh, conformance self-test included, the way
/// the process selects it at start-up (XDBLAS_FP_BACKEND, default auto), so
/// that every set-up repetition pays for it.
void select_backend();

}  // namespace perfbench
