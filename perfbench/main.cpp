// xdbench: one run of one benchmark workload (see bench.hpp and
// perfbench/README.md). perfbench/run.py builds this binary and turns its
// RESULT line into the benchmark's result record.
//
//   xdbench --workload serve_small|cg_solve|sharded --seed S --seconds T
//           --trace 0|1 [--trace-out FILE]
//
// Prints a readable report, a `FINGERPRINT {...}` line with the exact
// counts that must repeat for the same seed and code, and last a
// `RESULT {...}` line: correct, attempted, failed and the metrics of the
// mode (end-to-end untraced, per-layer traced). Exits 1 when any output
// check failed, 2 on bad arguments.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/thread_pool.hpp"

using namespace perfbench;

namespace {

constexpr int kSetupReps = 16;
constexpr const char* kWorkloads[] = {"serve_small", "cg_solve", "sharded"};

/// Units a traced probe of another workload runs for its layers.
u64 probe_units(const std::string& name) {
  return name == "serve_small" ? 400 : 1;
}

std::unique_ptr<Workload> make(const std::string& name, u64 seed, Tracer* tr) {
  if (name == "serve_small") return make_serve_small(seed, tr);
  if (name == "cg_solve") return make_cg_solve(seed);
  if (name == "sharded") return make_sharded(seed);
  return nullptr;
}

void run_phase(Workload& w, const Budget& b, Tracer* tr, Tally& t) {
  const ProcCost c0 = ProcCost::now();
  const u64 t0 = now_ns();
  w.run(b, tr, t);
  t.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  t.cost = ProcCost::now() - c0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const Metrics& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ",";
    s += "\"" + k + "\":" + json_number(v);
  }
  return s + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: xdbench --workload serve_small|cg_solve|sharded "
               "--seed S --seconds T --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::strtoull(val, &end, 10);
      if (*end) return usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(val, &end);
      if (*end || !(seconds > 0)) return usage();
    } else if (flag == "--trace") {
      trace = std::string(val) == "1" ? 1 : std::string(val) == "0" ? 0 : -1;
    } else if (flag == "--trace-out") {
      trace_out = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || trace < 0 || seconds <= 0) return usage();

  try {
    const bool traced = trace == 1;
    Tracer tracer;
    Tracer* tr = traced ? &tracer : nullptr;
    std::unique_ptr<Workload> w = make(workload, seed, tr);
    if (!w) return usage();
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace);

    // A set-up takes a few milliseconds or less of one CPU, so it would read
    // the contention of whichever vCPU it ran on; the repetitions move
    // round the CPUs instead. The shared pool starts first so that its
    // workers keep the whole mask, and the run gets one more set-up made
    // unpinned, since threads a pinned set-up starts (the server's) would
    // keep its one-CPU mask.
    xd::ThreadPool::shared();
    std::vector<double> setups;
    {
      CpuRotation cpus;
      for (int r = 0; r < kSetupReps; ++r) {
        cpus.next();
        w->teardown();
        const u64 t0 = now_ns();
        w->setup(tr);
        setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
    }
    w->teardown();
    w->setup(tr);

    Tally all;
    Metrics m;
    auto account = [&all](const Tally& t) {
      all.attempted += t.attempted;
      all.failed += t.failed;
      for (const auto& f : t.failures) {
        if (all.failures.size() < 8) all.failures.push_back(f);
      }
    };

    // One untimed cycle of the input pool: every distinct input is checked
    // once (completing the fingerprint) before timing, and the high-water
    // RSS here covers set-up and the work of each input. How RSS grows with
    // the units served afterwards is a per-layer metric; on serve_small it
    // scales with requests served, so a timed run's peak would track
    // throughput.
    Tally warm;
    run_phase(*w, Budget{0, w->pool_size()}, nullptr, warm);
    account(warm);
    const double warm_rss_mb = peak_rss_mb();

    if (!traced) {
      Tally t;
      run_phase(*w, Budget{seconds, 0}, nullptr, t);
      account(t);
      m["throughput_ops_s"] = t.throughput();
      m["latency_p90_ms"] = percentile(t.latency_ms, 0.90);
      m["peak_rss_mb"] = warm_rss_mb;
      m["setup_s"] = median(setups);
      // Printed, not result metrics: see perfbench/README.md.
      std::printf("  units %llu, latency samples %zu, latency_p50_ms %.6g, "
                  "latency_p99_ms %.6g\n",
                  static_cast<unsigned long long>(t.attempted),
                  t.latency_ms.size(), percentile(t.latency_ms, 0.50),
                  percentile(t.latency_ms, 0.99));
    } else {
      // Untraced half: the throughput tracing is compared against, and the
      // process cost per unit.
      Tally u;
      run_phase(*w, Budget{seconds / 2, 0}, nullptr, u);
      account(u);
      const double n = static_cast<double>(std::max<u64>(u.attempted, 1));
      m["proc.peak_rss_growth_kb_per_kop"] =
          (peak_rss_mb() - warm_rss_mb) * 1024.0 / (n / 1000.0);
      m["proc.user_ms_per_op"] = u.cost.user_ms / n;
      m["proc.sys_ms_per_op"] = u.cost.sys_ms / n;
      m["proc.minflt_per_op"] = u.cost.minflt / n;
      m["proc.ctx_switches_per_op"] = u.cost.ctx_switches / n;

      // Traced half: the spans behind every per-layer metric.
      Tally t;
      const u64 steals0 = xd::ThreadPool::shared().steals();
      run_phase(*w, Budget{seconds / 2, 0}, tr, t);
      const u64 steals = xd::ThreadPool::shared().steals() - steals0;
      account(t);
      m["host.runtime.pool_steals_per_op"] =
          static_cast<double>(steals) / static_cast<double>(std::max<u64>(t.attempted, 1));
      std::vector<LayerPart> parts;
      w->layers(tracer.spans(), t, m, parts);

      const double e2e_us =
          t.latency_ms.empty()
              ? 0.0
              : 1e3 *
                    std::accumulate(t.latency_ms.begin(), t.latency_ms.end(), 0.0) /
                    static_cast<double>(t.latency_ms.size());
      // Only measured terms are summed: a residual is the end-to-end time
      // minus measured terms, so adding it back would match by construction.
      double sum_us = 0;
      std::printf("  layer sum per unit (traced e2e mean %.1f us):\n", e2e_us);
      for (const LayerPart& p : parts) {
        if (!p.residual) sum_us += p.us_per_unit;
        std::printf("    %-24s %12.1f us%s\n", p.name.c_str(), p.us_per_unit,
                    p.residual ? "  (residual, not summed)" : "");
      }
      const double ratio = e2e_us > 0 ? sum_us / e2e_us : 0.0;
      std::printf("    sum / e2e = %.3f%s\n", ratio,
                  ratio < 0.9 || ratio > 1.1 ? "  ** OUTSIDE [0.9, 1.1] **" : "");
      m["trace.layer_sum_gap"] = std::fabs(ratio - 1.0);
      m["trace.untraced_ops_s"] = u.throughput();
      m["trace.traced_ops_s"] = t.throughput();
      m["trace.overhead_frac"] =
          t.throughput() > 0 ? u.throughput() / t.throughput() - 1.0 : 0.0;

      // Layers this workload never reaches come from short traced probes of
      // the other workloads, each on its own tracer.
      for (const char* other : kWorkloads) {
        if (workload == other) continue;
        Tracer ptr;
        std::unique_ptr<Workload> pw = make(other, seed, &ptr);
        pw->setup(&ptr);
        Tally pt;
        const u64 units = probe_units(other);
        run_phase(*pw, Budget{0, units}, &ptr, pt);
        account(pt);
        Metrics pm;
        std::vector<LayerPart> pparts;
        pw->layers(ptr.spans(), pt, pm, pparts);
        for (const auto& [k, v] : pm) {
          if (m.emplace(k, v).second) {
            std::printf("  %-36s from the %s probe\n", k.c_str(), other);
          }
        }
      }
      if (!trace_out.empty() && !tracer.write_jsonl(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
        return 1;
      }
    }

    const Metrics fp = w->fingerprint();
    w->teardown();
    if (!traced && fp.count("sim_cycles_per_op")) {
      m["sim_cycles_per_op"] = fp.at("sim_cycles_per_op");
    }

    std::printf("  attempted %llu, failed %llu, failed_frac %.6f\n",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed),
                all.attempted ? static_cast<double>(all.failed) /
                                    static_cast<double>(all.attempted)
                              : 0.0);
    for (const auto& f : all.failures) std::printf("  FAILED: %s\n", f.c_str());
    for (const auto& [k, v] : m) std::printf("  %-36s %.6g\n", k.c_str(), v);
    const bool correct = all.failed == 0 && all.attempted > 0 && !fp.empty();
    if (fp.empty()) std::printf("  FAILED: no whole pool cycle completed\n");
    std::printf("FINGERPRINT %s\n", json_object(fp).c_str());
    std::printf("RESULT {\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(all.attempted),
                static_cast<unsigned long long>(all.failed),
                json_object(m).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
