// Telemetry overhead gate: submits the same batch of independent ops through
// the worker pool twice -- telemetry detached (cfg.telemetry = nullptr, the
// zero-cost path) and attached (live Session: metrics, spans, latency
// histograms, flight recorder) -- verifies the outcomes are bit-identical
// (values AND cycle counts; recording must never change what the simulator
// computes), and reports the wall-clock overhead of recording.
//
// The attached run must stay within the overhead budget: 10% by default,
// overridable via XDBLAS_OVERHEAD_BUDGET_PCT for noisy machines. Reps
// alternate between the two arms so thermal drift and background load hit
// both equally, and each arm keeps its own Runtime so plan caches stay warm
// after the first (untimed) warm-up rep.
//
// Each workload writes two bench records (bench_util.hpp),
// "name/detached" and "name/attached"; the bench_all target collects them
// into BENCH.json and runs this bench last.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "host/runtime.hpp"
#include "telemetry/session.hpp"

using namespace xd;
using host::OpDesc;
using host::Outcome;
using host::Runtime;

namespace {

struct RunResult {
  std::vector<u64> bits;  ///< result values of every op, as bit patterns
  u64 cycles = 0;         ///< summed simulated cycles across the batch
};

/// Submit every desc concurrently, drain the futures in order.
RunResult submit_all(Runtime& rt, const std::vector<OpDesc>& descs) {
  std::vector<std::future<Outcome>> futs;
  futs.reserve(descs.size());
  for (const auto& d : descs) futs.push_back(rt.submit(d));
  RunResult r;
  for (auto& f : futs) {
    const Outcome out = f.get();
    const std::size_t at = r.bits.size();
    r.bits.resize(at + out.values.size());
    std::memcpy(r.bits.data() + at, out.values.data(),
                out.values.size() * sizeof(double));
    r.cycles += out.report.cycles;
  }
  return r;
}

struct Workload {
  std::string name;
  std::vector<OpDesc> descs;
  // Operand storage backing the descs. OpDesc keeps pointers to these
  // vector objects, so `keep` is reserved up front and never reallocates.
  std::vector<std::vector<double>> keep;
};

Workload gemv_batch(std::size_t jobs, std::size_t n) {
  Workload w;
  w.keep.reserve(2 * jobs);
  w.name = cat("submit-gemv-", n, "x", jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    Rng rng(900 + j);
    w.keep.push_back(rng.matrix(n, n));
    w.keep.push_back(rng.vector(n));
    const auto& a = w.keep[w.keep.size() - 2];
    const auto& x = w.keep.back();
    w.descs.push_back(OpDesc::gemv(a, n, n, x));
  }
  return w;
}

Workload dot_batch(std::size_t jobs, std::size_t n) {
  Workload w;
  w.keep.reserve(2 * jobs);
  w.name = cat("submit-dot-", n / 1024, "kx", jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    Rng rng(700 + j);
    w.keep.push_back(rng.vector(n));
    w.keep.push_back(rng.vector(n));
    const auto& u = w.keep[w.keep.size() - 2];
    const auto& v = w.keep.back();
    w.descs.push_back(OpDesc::dot(u, v));
  }
  return w;
}

Workload gemm_batch(std::size_t jobs, std::size_t n) {
  Workload w;
  w.keep.reserve(2 * jobs);
  w.name = cat("submit-gemm-", n, "x", jobs);
  for (std::size_t j = 0; j < jobs; ++j) {
    Rng rng(500 + j);
    w.keep.push_back(rng.matrix(n, n));
    w.keep.push_back(rng.matrix(n, n));
    const auto& a = w.keep[w.keep.size() - 2];
    const auto& b = w.keep.back();
    w.descs.push_back(OpDesc::gemm(a, b, n));
  }
  return w;
}

double overhead_budget_pct() {
  if (const char* env = std::getenv("XDBLAS_OVERHEAD_BUDGET_PCT")) {
    char* end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && v > 0.0) return v;
  }
  return 10.0;
}

}  // namespace

int main() {
  const double budget = overhead_budget_pct();
  bench::heading("Telemetry overhead: attached vs detached submit()");
  bench::note(cat("overhead budget: ", TextTable::num(budget, 1),
                  "% (XDBLAS_OVERHEAD_BUDGET_PCT to override)"));

  std::vector<Workload> workloads;
  workloads.push_back(gemv_batch(8, 256));
  workloads.push_back(gemv_batch(48, 64));  // many small ops: per-op cost
  workloads.push_back(dot_batch(8, 1 << 16));
  workloads.push_back(gemm_batch(4, 128));

  constexpr int kReps = 7;
  TextTable t({"Workload", "Ops", "Cycles", "detached ms", "attached ms",
               "Overhead", "Bit-identical"});
  int failures = 0;

  for (const auto& w : workloads) {
    Runtime detached({});
    telemetry::Session tel;
    host::ContextConfig acfg;
    acfg.telemetry = &tel;
    Runtime attached(acfg);

    // Untimed warm-up: build both plan caches, fault in the pool. Also
    // sizes the per-rep pass count so every timed measurement covers at
    // least ~10ms of work — short batches are otherwise at the mercy of
    // scheduler noise, and the gate below must not flake on a busy host.
    const auto w0 = std::chrono::steady_clock::now();
    RunResult dres = submit_all(detached, w.descs);
    const auto w1 = std::chrono::steady_clock::now();
    tel.clear();
    RunResult ares = submit_all(attached, w.descs);
    const double warm_ns =
        std::chrono::duration<double, std::nano>(w1 - w0).count();
    const int passes =
        std::max(1, static_cast<int>(10e6 / std::max(warm_ns, 1.0)) + 1);

    // Each rep times the two arms back to back, so a host-noise burst hits
    // both and cancels in the per-rep ratio; the median ratio across reps
    // is then robust to the occasional rep where it does not.
    auto [detached_ns, attached_ns] = bench::time_reps(
        kReps,
        [&] {
          for (int p = 0; p < passes; ++p) dres = submit_all(detached, w.descs);
        },
        [&] {
          tel.clear();  // fresh session state per rep, same as a fresh run
          for (int p = 0; p < passes; ++p) ares = submit_all(attached, w.descs);
        });
    detached_ns.per(passes);
    attached_ns.per(passes);
    std::vector<double> rep_overhead(kReps);
    for (int r = 0; r < kReps; ++r) {
      rep_overhead[r] =
          100.0 * (attached_ns.ns[r] - detached_ns.ns[r]) / detached_ns.ns[r];
    }

    const bool bits_equal =
        dres.bits == ares.bits && dres.cycles == ares.cycles;
    std::sort(rep_overhead.begin(), rep_overhead.end());
    const double overhead_pct = rep_overhead[kReps / 2];
    t.row(w.name, w.descs.size(), dres.cycles,
          TextTable::num(detached_ns.median() / 1e6, 2),
          TextTable::num(attached_ns.median() / 1e6, 2),
          TextTable::num(overhead_pct, 1) + "%", bits_equal ? "yes" : "NO");

    const double ops = static_cast<double>(w.descs.size());
    bench::record({cat(w.name, "/detached"), dres.cycles, bits_equal,
                   detached_ns, {{"ops", ops}}, {}});
    bench::record({cat(w.name, "/attached"), dres.cycles, bits_equal,
                   attached_ns, {{"ops", ops}},
                   {{"overhead_pct", overhead_pct}}});

    if (!bits_equal) {
      std::fprintf(stderr, "FATAL: %s changed results when telemetry attached\n",
                   w.name.c_str());
      return 1;
    }
    if (overhead_pct > budget) {
      std::fprintf(stderr, "FAIL: %s telemetry overhead %.1f%% > budget %.1f%%\n",
                   w.name.c_str(), overhead_pct, budget);
      ++failures;
    }
  }

  bench::print_table(t);
  if (failures) {
    bench::note(cat(failures, " workload(s) over the overhead budget"));
    return 1;
  }
  bench::note(
      "Every workload computed bit-identical values and cycle counts with "
      "telemetry attached; the overhead above is pure recording cost.");
  return 0;
}
