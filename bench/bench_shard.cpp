// Sharded multi-FPGA execution (Sec 6.4 made runnable, host/shard.hpp):
// one GEMM / GEMV split across the FPGAs of a 3-chassis x 2-node system,
// single-device vs l in {1, 2, 3, 6}, with the scatter/gather transfer legs
// charged through the machine's RocketIO and RapidArray channels.
//
// Hard gates, enforced in-binary (the shard_bit_identical test leans on
// this binary's exit code):
//   * GEMM values must be bit-identical to the single-device run at every
//     l, and the channel-driven simulation must land on the analytic model
//     (ShardPlan::model_cycles) cycle-for-cycle.
//   * Every sharded op must be rerun-deterministic bit for bit (the GEMV
//     gate: its reduction reassociates across row batches).
//   * l = 1 must cost exactly the single-device cycle count.
// Each row writes one bench record (bench_util.hpp); its cycles and link
// counters are deterministic, so tools/bench_compare treats any drift
// from BENCH.json as a correctness failure. wall_ns times the reruns.
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "host/context.hpp"
#include "host/runtime.hpp"
#include "host/shard.hpp"

using namespace xd;

namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

machine::SystemConfig small_system() {
  machine::SystemConfig sys;
  sys.chassis_count = 3;
  sys.chassis.nodes = 2;
  return sys;
}

}  // namespace

int main() {
  bench::heading("Sharded multi-FPGA execution: single device vs l FPGAs");

  host::ContextConfig cfg;
  host::Runtime rt(cfg);
  Rng rng(2005);

  const std::size_t n = 96;
  const auto ga = rng.matrix(n, n);
  const auto gb = rng.matrix(n, n);
  const std::size_t rows = 192, cols = 128;
  const auto va = rng.matrix(rows, cols);
  const auto vx = rng.vector(cols);

  const host::Outcome gemm_base = rt.run(host::OpDesc::gemm(ga, gb, n));
  const host::Outcome gemv_base =
      rt.run(host::OpDesc::gemv(va, rows, cols, vx));

  constexpr int kReps = 21;
  TextTable t({"Workload", "l", "Cycles", "Model", "Compute", "Transfer",
               "Speedup", "Bits", "Model==Sim"});
  bool failed = false;
  u64 gemm_l1 = 0, gemv_l1 = 0;

  for (const bool gemm : {true, false}) {
    for (const unsigned l : {1u, 2u, 3u, 6u}) {
      const host::OpDesc desc =
          gemm ? host::OpDesc::gemm(ga, gb, n)
               : host::OpDesc::gemv(va, rows, cols, vx);
      host::ShardScheduler sched(rt, small_system());
      const host::ShardOutcome so = sched.run(desc, l);
      bool rerun_equal = true;
      auto [wall] = bench::time_reps(kReps, [&] {
        const host::ShardOutcome again = sched.run(desc, l);
        rerun_equal = rerun_equal && bits_equal(again.values, so.values) &&
                      again.report.cycles == so.report.cycles;
      });

      // GEMM: bit-identity to the single device and model==sim, both at
      // every l (see host/shard.hpp's determinism contract). GEMV's shard
      // model is ranking-grade only.
      const u64 cycles = so.report.cycles;
      bool bits_ok = rerun_equal &&
                     (!gemm || bits_equal(so.values, gemm_base.values));
      const bool model_ok = !gemm || cycles == so.plan.model_cycles;
      if (l == 1) {
        bits_ok = bits_ok &&
                  cycles == (gemm ? gemm_base : gemv_base).report.cycles;
        (gemm ? gemm_l1 : gemv_l1) = cycles;
      }
      // Deterministic: a cycle ratio, not wall clock.
      const double speedup = static_cast<double>(gemm ? gemm_l1 : gemv_l1) /
                             static_cast<double>(cycles);
      failed = failed || !bits_ok || !model_ok;

      const std::string op =
          cat(gemm ? "gemm-" : "gemv-", gemm ? n : rows, "-l", l);
      t.row(op, l, cycles, so.plan.model_cycles, so.report.compute_cycles,
            so.report.staging_cycles, TextTable::num(speedup, 2),
            bits_ok ? "yes" : "NO", model_ok ? "yes" : "NO");
      bench::record({op,
                     cycles,
                     bits_ok,
                     wall,
                     {{"l", l},
                      {"model_cycles", so.plan.model_cycles},
                      {"compute_cycles", so.report.compute_cycles},
                      {"staging_cycles", so.report.staging_cycles},
                      {"link_words", so.link_words},
                      {"interchassis_words", so.interchassis_words}},
                     {{"speedup_vs_l1", speedup}}});
    }
  }
  bench::print_table(t);
  bench::note(
      "Cycle counts, cycle speedups and link words are deterministic "
      "simulator output. GEMM rows must be bit-identical to the single "
      "device with the analytic model matching the simulation exactly; "
      "GEMV rows must be rerun-deterministic; l=1 must cost the "
      "single-device run. Any NO above makes this binary exit nonzero.");

  return failed ? 1 : 0;
}
