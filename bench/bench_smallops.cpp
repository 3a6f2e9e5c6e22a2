// Small-op executor throughput: ops/sec for 1e5+ tiny dot/gemv ops pushed
// through the three hot submission paths — Runtime::submit (single and
// multi-producer), Runtime::run_batch (same-shape runs), and the serve
// loopback (TCP daemon + shared Runtime). Host-side overhead, not compute,
// dominates at these sizes; this bench is the regression gate for the
// work-stealing pool, plan pinning, and the batch fast path.
//
// Hard gates (exit non-zero, immune to runner noise):
//   * every concurrent result is bit-identical — values AND cycles — to a
//     sequential single-threaded execution of the same descriptor;
//   * ThreadPool::submit's task machinery stays within its allocation
//     budget (the move-only wrapper removed the shared_ptr<packaged_task>
//     + std::function double allocation; a global operator-new counter
//     measures allocations/op directly).
//
// Each arm writes one bench record (bench_util.hpp) whose wall_ns samples
// are ns per op, one per rep; tools/bench_compare diffs them against
// BENCH.json. XDBLAS_SMALLOPS_OPS scales the op count per rep (default
// 100000).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "common/util.hpp"
#include "host/runtime.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"

// ---- global allocation counter ---------------------------------------------
// Counts every operator-new in the process; arms snapshot it around their
// timed region to report allocations/op. Relaxed is fine: the snapshots
// happen after all worker threads quiesced (futures consumed, pool idle).
namespace {
std::atomic<unsigned long long> g_allocs{0};
}

void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) { return operator new(sz); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace xd;
using host::OpDesc;
using host::Outcome;
using host::Runtime;

/// One distinct tiny workload shape: caller-owned operands + the expected
/// (sequential) digest and cycle count every concurrent execution must hit.
struct TinyOp {
  std::vector<double> a, b, x;
  OpDesc desc;
  u64 fnv = 0;
  u64 cycles = 0;
};

/// K distinct tiny dots (n=32) and K distinct tiny GEMVs (16x16),
/// interleaved dot-first. Sequential expectations come from a fresh
/// single-threaded Runtime.
std::vector<TinyOp> make_tiny_ops(std::size_t k) {
  std::vector<TinyOp> ops(2 * k);
  for (std::size_t i = 0; i < k; ++i) {
    {
      TinyOp& t = ops[2 * i];
      Rng rng(1000 + i);
      t.a = rng.vector(32);
      t.b = rng.vector(32);
      t.desc = OpDesc::dot(t.a, t.b);
    }
    {
      TinyOp& t = ops[2 * i + 1];
      Rng rng(2000 + i);
      t.a = rng.matrix(16, 16);
      t.x = rng.vector(16);
      t.desc = OpDesc::gemv(t.a, 16, 16, t.x);
    }
  }
  Runtime seq({});
  for (auto& t : ops) {
    const Outcome out = seq.run(t.desc);
    t.fnv = serve::values_fnv(out.values);
    t.cycles = out.report.cycles;
  }
  return ops;
}

constexpr int kReps = 5;

struct ArmResult {
  std::string op;
  std::size_t ops = 0;     ///< per rep
  bench::WallNs wall;      ///< ns per op, one sample per rep
  u64 cycles = 0;          ///< deterministic workload total (hard-gated)
  std::size_t mismatches = 0;
  double allocs_per_op = 0;
};

bool g_all_ok = true;

void emit(const ArmResult& r) {
  const double ns_per_op = r.wall.median();
  const double ops_per_sec = ns_per_op > 0 ? 1e9 / ns_per_op : 0;
  const bool ok = r.mismatches == 0;
  if (!ok) g_all_ok = false;
  std::printf("%-22s %9zu ops  %8.0f ops/s  %7.0f ns/op  %5.1f allocs/op%s\n",
              r.op.c_str(), r.ops, ops_per_sec, ns_per_op, r.allocs_per_op,
              ok ? "" : "  [MISMATCH]");
  bench::record({r.op,
                 r.cycles,
                 ok,
                 r.wall,
                 {{"ops", r.ops}},
                 {{"ops_per_sec", ops_per_sec},
                  {"allocs_per_op", r.allocs_per_op}}});
}

/// Time kReps calls of `body` (each running r.ops ops) into r.wall, as ns
/// per op, and the allocations they made into r.allocs_per_op.
template <typename F>
void time_arm(ArmResult& r, F&& body) {
  const unsigned long long a0 = g_allocs.load();
  auto [wall] = bench::time_reps(kReps, body);
  const double ops = static_cast<double>(r.ops) * kReps;
  r.allocs_per_op = static_cast<double>(g_allocs.load() - a0) / ops;
  r.wall = wall.per(static_cast<double>(r.ops));
}

/// Verify one outcome against its TinyOp expectation (values digest AND
/// cycles, the runtime determinism contract at wire strength).
bool matches(const TinyOp& t, const Outcome& out) {
  return serve::values_fnv(out.values) == t.fnv && out.report.cycles == t.cycles;
}

u64 workload_cycles(const std::vector<TinyOp>& tiny, std::size_t n_ops) {
  u64 c = 0;
  for (std::size_t i = 0; i < n_ops; ++i) c += tiny[i % tiny.size()].cycles;
  return c;
}

// ---- arm 1: single-producer submit -----------------------------------------
ArmResult arm_submit(const std::vector<TinyOp>& tiny, std::size_t n_ops,
                     const char* name, unsigned producers,
                     bool pinned = false) {
  Runtime rt({});
  ArmResult r;
  r.op = name;
  r.ops = n_ops;
  r.cycles = workload_cycles(tiny, n_ops);

  // Pinned mode: the plan for each shape is interned once up front and the
  // handle rides along with every submit — the serve-daemon usage pattern.
  std::vector<host::PlanHandle> handles(tiny.size());
  if (pinned) {
    for (std::size_t i = 0; i < tiny.size(); ++i) {
      handles[i] = rt.pin_plan(tiny[i].desc);
    }
  }

  std::atomic<std::size_t> mism{0};
  time_arm(r, [&] {
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        // Windowed: bounded futures in flight per producer, no unbounded
        // outcome buildup.
        constexpr std::size_t kWindow = 2048;
        const std::size_t lo = p * n_ops / producers;
        const std::size_t hi = (p + 1) * n_ops / producers;
        std::vector<std::future<Outcome>> futs;
        futs.reserve(kWindow);
        std::size_t base = lo;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t s = i % tiny.size();
          futs.push_back(pinned ? rt.submit(tiny[s].desc, handles[s])
                                : rt.submit(tiny[s].desc));
          if (futs.size() == kWindow || i + 1 == hi) {
            for (std::size_t j = 0; j < futs.size(); ++j) {
              if (!matches(tiny[(base + j) % tiny.size()], futs[j].get())) {
                mism.fetch_add(1, std::memory_order_relaxed);
              }
            }
            base = i + 1;
            futs.clear();
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  r.mismatches = mism.load();
  return r;
}

// ---- arm 2: run_batch with same-shape runs ---------------------------------
ArmResult arm_batch(const std::vector<TinyOp>& tiny, std::size_t n_ops) {
  Runtime rt({});
  ArmResult r;
  r.op = "batch-tiny";
  r.ops = n_ops;

  // Same-PlanKey runs of 64: the layout the batch fast path exists for
  // (a serving queue naturally arrives shape-clustered).
  constexpr std::size_t kRun = 64;
  std::vector<const TinyOp*> order;
  order.reserve(n_ops);
  for (std::size_t i = 0; i < n_ops; ++i) {
    order.push_back(&tiny[(i / kRun) % tiny.size()]);
  }
  for (const TinyOp* t : order) r.cycles += t->cycles;

  time_arm(r, [&] {
    constexpr std::size_t kChunk = 8192;
    for (std::size_t lo = 0; lo < n_ops; lo += kChunk) {
      const std::size_t hi = std::min(n_ops, lo + kChunk);
      std::vector<OpDesc> descs;
      descs.reserve(hi - lo);
      for (std::size_t i = lo; i < hi; ++i) descs.push_back(order[i]->desc);
      const std::vector<Outcome> outs = rt.run_batch(descs);
      for (std::size_t i = lo; i < hi; ++i) {
        if (!matches(*order[i], outs[i - lo])) ++r.mismatches;
      }
    }
  });
  return r;
}

// ---- arm 3: serve loopback -------------------------------------------------
ArmResult arm_serve(std::size_t n_ops, std::size_t conns) {
  ArmResult r;
  r.op = "serve-tiny";
  r.ops = n_ops;

  // Distinct tiny request lines; the server materializes operands from the
  // seed, so the sequential reference parses the same lines locally.
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < 8; ++i) {
    lines.push_back(cat("dot --n 32 --seed ", 100 + i));
  }
  host::ContextConfig base_cfg;
  Runtime local(base_cfg);
  std::vector<u64> fnv(lines.size());
  std::vector<u64> cycles(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    serve::Request req;
    serve::parse_record(lines[i], i + 1, base_cfg, req);
    const Outcome out = local.run(req.desc);
    fnv[i] = serve::values_fnv(out.values);
    cycles[i] = out.report.cycles;
  }
  const std::size_t per_conn = n_ops / conns;
  for (std::size_t i = 0; i < conns * per_conn; ++i) {
    r.cycles += cycles[i % lines.size()];
  }
  r.ops = conns * per_conn;

  serve::ServerConfig scfg;
  scfg.max_inflight = 1 << 20;  // throughput arm: never shed
  serve::Server server(scfg);
  std::thread accept_thread([&] { server.serve(); });

  std::atomic<std::size_t> mism{0};
  time_arm(r, [&] {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&] {
        try {
          Socket sock = tcp_connect("127.0.0.1", server.port());
          std::string payload;
          for (std::size_t i = 0; i < per_conn; ++i) {
            payload += lines[i % lines.size()];
            payload += '\n';
          }
          if (!sock.send_all(payload)) {
            mism.fetch_add(per_conn);
            return;
          }
          sock.shutdown_write();
          LineFramer framer(1 << 20);
          char buf[16384];
          std::string rec;
          bool truncated = false;
          std::size_t idx = 0;
          for (;;) {
            const long got = sock.recv_some(buf, sizeof buf);
            if (got <= 0) break;
            framer.feed(buf, static_cast<std::size_t>(got));
            while (framer.next(rec, truncated)) {
              const std::size_t i = idx++;
              // Cheap wire-level check: the reply must carry the expected
              // values_fnv digest for its line index.
              char want[32];
              std::snprintf(want, sizeof want, "\"values_fnv\":\"%016llx\"",
                            static_cast<unsigned long long>(
                                fnv[i % lines.size()]));
              if (rec.find(want) == std::string::npos) {
                mism.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          if (idx != per_conn) mism.fetch_add(per_conn - idx);
        } catch (const std::exception&) {
          mism.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
  });
  r.mismatches = mism.load();
  server.drain();
  accept_thread.join();
  return r;
}

// ---- arm 4: raw pool-task machinery (allocation budget) --------------------
ArmResult arm_pool_noop(std::size_t n_ops) {
  ThreadPool& pool = ThreadPool::shared();
  ArmResult r;
  r.op = "pool-submit-noop";
  r.ops = n_ops;
  r.cycles = 0;

  constexpr std::size_t kWindow = 4096;
  std::vector<std::future<int>> futs;
  futs.reserve(kWindow);
  time_arm(r, [&] {
    for (std::size_t i = 0; i < n_ops; ++i) {
      futs.push_back(pool.submit([] { return 1; }));
      if (futs.size() == kWindow || i + 1 == n_ops) {
        for (auto& f : futs) {
          if (f.get() != 1) ++r.mismatches;
        }
        futs.clear();
      }
    }
  });
  return r;
}

}  // namespace

int main() {
  std::size_t n_ops = 100000;
  if (const char* env = std::getenv("XDBLAS_SMALLOPS_OPS")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) n_ops = v;
  }

  bench::heading("Small-op executor throughput (tiny dot n=32 / gemv 16x16)");
  const auto tiny = make_tiny_ops(4);

  const ArmResult pool_noop = arm_pool_noop(n_ops);
  emit(pool_noop);
  emit(arm_submit(tiny, n_ops, "submit-tiny-1p", 1));
  emit(arm_submit(tiny, n_ops, "submit-tiny-4p", 4));
  emit(arm_submit(tiny, n_ops, "submit-tiny-pinned", 1, /*pinned=*/true));
  emit(arm_batch(tiny, n_ops));
  emit(arm_serve(std::max<std::size_t>(n_ops / 5, 1000), 4));

  // Allocation budget for the raw task machinery: the move-only wrapper
  // keeps pool.submit at (task shared-state + queue-growth) — comfortably
  // under 4 allocations/op. The old shared_ptr<packaged_task>-in-
  // std::function path measured ~5.
  if (pool_noop.allocs_per_op > 4.0) {
    std::fprintf(stderr,
                 "FAIL: pool.submit allocations/op %.2f exceeds budget 4.0\n",
                 pool_noop.allocs_per_op);
    return 1;
  }
  if (!g_all_ok) {
    std::fprintf(stderr, "FAIL: concurrent results diverged from sequential\n");
    return 1;
  }
  std::printf("\nall paths bit-identical to sequential; allocation budget ok\n");
  return 0;
}
