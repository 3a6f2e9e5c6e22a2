// Soft-vs-native FP backend comparison: runs each op kind's hot path under
// both arithmetic backends, verifies the results are bit-identical and the
// cycle counts equal (the backend must never change what the simulator
// computes, only how fast), and reports the wall-clock speedup. One row
// runs a tree GEMV through a Runtime, whose later runs replay the recorded
// reduction schedule; every row's repetitions must match its first run.
//
// With XDBLAS_BENCH_JSON set, each row is also emitted as a JSONL object
// (event "backend_bench"); tools/bench_compare diffs those rows against
// BENCH_baseline.json.
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_util.hpp"
#include "blas1/dot_engine.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "common/random.hpp"
#include "fp/backend.hpp"
#include "fp/softfloat.hpp"
#include "host/runtime.hpp"
#include "telemetry/json.hpp"

using namespace xd;

namespace {

struct RunResult {
  std::vector<u64> bits;  ///< result values as bit patterns
  u64 cycles = 0;
};

struct Measurement {
  RunResult result;
  double best_ns = 0.0;
};

std::vector<u64> to_bits_vec(const std::vector<double>& v) {
  std::vector<u64> bits(v.size());
  std::memcpy(bits.data(), v.data(), v.size() * sizeof(double));
  return bits;
}

/// Best-of-`reps` wall-clock of `body` under the given backend. Every
/// repetition must reproduce the first one's bits and cycles (for the
/// replay row, the first run simulates and the later ones replay).
Measurement measure(fp::BackendKind kind, int reps, const std::string& name,
                    const std::function<RunResult()>& body) {
  fp::ScopedBackend scoped(kind);
  Measurement m;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    RunResult out = body();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count();
    if (r == 0 || ns < m.best_ns) m.best_ns = ns;
    if (r > 0 && (out.bits != m.result.bits || out.cycles != m.result.cycles)) {
      std::fprintf(stderr, "FATAL: %s run %d differs from run 0 (%s)\n",
                   name.c_str(), r, fp::backend_name(kind).data());
      std::exit(1);
    }
    m.result = std::move(out);
  }
  return m;
}

struct Case {
  std::string name;
  u64 flops;
  std::function<RunResult()> body;
};

void run_cases(const std::vector<Case>& cases, int reps) {
  TextTable t({"Op kind", "FP ops", "Cycles", "soft ms", "native ms",
               "Speedup", "Bit-identical"});
  for (const auto& c : cases) {
    const Measurement soft = measure(fp::BackendKind::Soft, reps, c.name, c.body);
    const Measurement nat = measure(fp::BackendKind::Native, reps, c.name, c.body);
    const bool bits_equal = soft.result.bits == nat.result.bits &&
                            soft.result.cycles == nat.result.cycles;
    const double speedup = soft.best_ns / nat.best_ns;
    t.row(c.name, c.flops, soft.result.cycles,
          TextTable::num(soft.best_ns / 1e6, 2),
          TextTable::num(nat.best_ns / 1e6, 2),
          TextTable::num(speedup, 1) + "x", bits_equal ? "yes" : "NO");
    telemetry::JsonWriter w;
    w.begin_object()
        .kv("event", "backend_bench")
        .kv("op", c.name)
        .kv("flops", c.flops)
        .kv("cycles", soft.result.cycles)
        .kv("soft_ns", soft.best_ns)
        .kv("native_ns", nat.best_ns)
        .kv("speedup", speedup)
        .kv("bits_equal", bits_equal)
        .end_object();
    bench::jsonl(w.str());
    if (!bits_equal) {
      std::fprintf(stderr, "FATAL: %s diverged between backends\n",
                   c.name.c_str());
      std::exit(1);
    }
  }
  bench::print_table(t);
}

}  // namespace

int main() {
  const auto& sel = fp::backend_selection();
  bench::heading("FP backend: soft vs native");
  bench::note(cat("host backend selection: requested=", sel.requested,
                  " active=", fp::backend_name(sel.backend->kind),
                  " conformance_cases=", sel.conformance.cases,
                  sel.fell_back ? " (FELL BACK to softfloat)" : ""));

  Rng rng(42);

  // Raw op-stream rates: the ceiling any engine speedup approaches as the
  // per-cycle simulation bookkeeping amortizes to zero.
  {
    const std::size_t n = 1 << 20;
    auto a = to_bits_vec(rng.vector(n, -1e3, 1e3));
    auto b = to_bits_vec(rng.vector(n, -1e3, 1e3));
    std::vector<Case> cases;
    cases.push_back(Case{"raw-add-1M", n, [a, b, n] {
                           const fp::Backend& be = fp::active_backend();
                           u64 acc = fp::kPosZero;
                           for (std::size_t i = 0; i < n; ++i) {
                             acc = be.add(acc, be.add(a[i], b[i]));
                           }
                           return RunResult{{acc}, 0};
                         }});
    cases.push_back(Case{"raw-mul-1M", n, [a, b, n] {
                           const fp::Backend& be = fp::active_backend();
                           u64 acc = fp::kPosZero;
                           for (std::size_t i = 0; i < n; ++i) {
                             acc = be.add(acc, be.mul(a[i], b[i]));
                           }
                           return RunResult{{acc}, 0};
                         }});
    run_cases(cases, 3);
  }

  // Cycle-accurate engines at their high-lane-count ("hot path") shapes:
  // every cycle feeds k multipliers, so the FP work dominates the per-cycle
  // simulation overhead that both backends pay equally.
  {
    std::vector<Case> cases;

    const std::size_t dot_n = 1 << 19;
    auto u = rng.vector(dot_n, -1e3, 1e3);
    auto v = rng.vector(dot_n, -1e3, 1e3);
    cases.push_back(Case{"dot-k8-512k", 2 * dot_n, [u, v] {
                           blas1::DotConfig cfg;
                           cfg.k = 8;
                           cfg.mem_words_per_cycle = 16.0;
                           blas1::DotEngine engine(cfg);
                           auto out = engine.run({u}, {v});
                           return RunResult{to_bits_vec(out.results),
                                            out.report.cycles};
                         }});

    const std::size_t gn = 512;
    auto ga = rng.matrix(gn, gn);
    auto gx = rng.vector(gn, -1e3, 1e3);
    cases.push_back(Case{"gemv-tree-k8-512", 2 * gn * gn, [ga, gx, gn] {
                           blas2::MxvTreeConfig cfg;
                           cfg.k = 8;
                           cfg.mem_words_per_cycle = 8.0;
                           blas2::MxvTreeEngine engine(cfg);
                           auto out = engine.run(ga, gn, gn, gx);
                           return RunResult{to_bits_vec(out.y),
                                            out.report.cycles};
                         }});

    // The same shape through a Runtime at the paper's k = 4: the plan's
    // first run simulates and records its reduction schedule, the later
    // runs replay it (sim/schedule.hpp), so the best time is a replay.
    auto rt = std::make_shared<host::Runtime>(host::ContextConfig{});
    cases.push_back(Case{"gemv-tree-512 replay", 2 * gn * gn, [rt, ga, gx, gn] {
                           auto out = rt->run(host::OpDesc::gemv(ga, gn, gn, gx));
                           return RunResult{to_bits_vec(out.values),
                                            out.report.cycles};
                         }});

    blas2::CrsMatrix sp;
    {
      const std::size_t rows = 1024, cols = 1024;
      sp.rows = rows;
      sp.cols = cols;
      sp.row_ptr.push_back(0);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = r % 16; c < cols; c += 16) {
          sp.values.push_back(rng.uniform(-1e3, 1e3));
          sp.col_idx.push_back(c);
        }
        sp.row_ptr.push_back(sp.values.size());
      }
    }
    auto sx = rng.vector(sp.cols, -1e3, 1e3);
    cases.push_back(Case{"spmxv-k8-1k", 2 * sp.values.size(), [sp, sx] {
                           blas2::SpmxvConfig cfg;
                           cfg.k = 8;
                           cfg.mem_elements_per_cycle = 8.0;
                           blas2::SpmxvEngine engine(cfg);
                           auto out = engine.run(sp, sx);
                           return RunResult{to_bits_vec(out.y),
                                            out.report.cycles};
                         }});

    const std::size_t an = 64;
    auto aa = rng.matrix(an, an);
    auto ab = rng.matrix(an, an);
    cases.push_back(Case{"gemm-array-k8-64", 2 * an * an * an, [aa, ab, an] {
                           blas3::MmArrayConfig cfg;
                           blas3::MmArrayEngine engine(cfg);
                           auto out = engine.run(aa, ab, an);
                           return RunResult{to_bits_vec(out.c),
                                            out.report.cycles};
                         }});

    const std::size_t hn = 256;
    auto ha = rng.matrix(hn, hn);
    auto hb = rng.matrix(hn, hn);
    cases.push_back(Case{"gemm-hier-256", 2 * hn * hn * hn, [ha, hb, hn] {
                           blas3::MmHierConfig cfg;
                           cfg.b = hn;
                           blas3::MmHierEngine engine(cfg);
                           auto out = engine.run(ha, hb, hn);
                           return RunResult{to_bits_vec(out.c),
                                            out.report.cycles};
                         }});

    run_cases(cases, 3);
  }

  bench::note(
      "Every row above computed bit-identical values and identical cycle "
      "counts under both backends; the speedup is pure wall-clock.");
  return 0;
}
