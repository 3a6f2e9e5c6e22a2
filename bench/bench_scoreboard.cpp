// Reproduction scoreboard: one compact PASS/FAIL check per paper claim,
// runnable in a few seconds. This is the "did the reproduction hold" summary;
// the per-table benches print the full detail. Exits nonzero on any FAIL.
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "machine/node.hpp"
#include "xdblas.hpp"

using namespace xd;

namespace {

struct Check {
  std::string claim;
  double expected;
  double measured;
  double rel_tol;
  bool pass() const {
    if (expected == 0.0) return measured == 0.0;
    return std::fabs(measured - expected) <= rel_tol * std::fabs(expected);
  }
};

std::vector<Check> checks;

void check(std::string claim, double expected, double measured,
           double rel_tol) {
  checks.push_back(Check{std::move(claim), expected, measured, rel_tol});
}

}  // namespace

int main() {
  Rng rng(2005);
  machine::AreaModel area;
  const auto vp50 = machine::xc2vp50();

  // --- Table 2 ------------------------------------------------------------
  check("T2: adder slices", 892, area.cores().adder_slices, 0);
  check("T2: multiplier slices", 835, area.cores().multiplier_slices, 0);
  check("T2: reduction circuit slices", 1658, area.reduction_circuit_slices(), 0);

  // --- Sec 4.3 reduction claims -------------------------------------------
  {
    reduce::ReductionCircuit c;
    const std::size_t sets = 100, s = 64;
    std::size_t done = 0, si = 0, ei = 0;
    u64 cycles = 0;
    while (done < sets) {
      std::optional<reduce::Input> in;
      if (si < sets) in = reduce::Input{fp::to_bits(rng.uniform(-1, 1)), ei + 1 == s};
      const bool consumed = c.cycle(in);
      ++cycles;
      if (in && consumed && ++ei == s) {
        ei = 0;
        ++si;
      }
      if (c.take_result()) ++done;
    }
    check("4.3: one adder", 1, c.adders_used(), 0);
    check("4.3: zero stalls (uniform s>=alpha)", 0, double(c.stats().stall_cycles), 0);
    check("4.3: peak buffer <= alpha^2 (196)", 196,
          double(c.stats().peak_buffer_words), 0);
    check("4.3: latency < sum+2a^2 (tail/392)", 1.0,
          double(cycles - sets * s) < 392.0 ? 1.0 : 0.0, 0);
  }

  // --- Table 3 ------------------------------------------------------------
  {
    host::Runtime rt{host::ContextConfig{}};
    const auto d =
        rt.run(host::OpDesc::dot(rng.vector(2048), rng.vector(2048)));
    check("T3: dot sustained >= 80% of peak (ratio/0.8)", 1.0,
          d.report.sustained_mflops() / 687.5 >= 0.80 ? 1.0 : 0.0, 0);
    const std::size_t n = 512;
    const auto g =
        rt.run(host::OpDesc::gemv(rng.matrix(n, n), n, n, rng.vector(n)));
    check("T3: gemv flops/cycle ~ 2k = 8", 8.0, g.report.flops_per_cycle(), 0.05);
  }

  // --- Table 4 GEMV (node level, n = 512 for speed) ------------------------
  {
    machine::NodeConfig nc;
    nc.clock_mhz = 164.0;
    nc.dram_bytes_per_s = 1.3e9;
    nc.dram_words = 1u << 20;
    machine::ComputeNode node(nc);
    blas2::NodeGemvEngine engine(node);
    const std::size_t n = 512;
    const auto out = engine.run(rng.matrix(n, n), n, n, rng.vector(n), true);
    const double staging_frac = double(out.report.staging_cycles) /
                                double(out.report.cycles);
    check("T4: gemv staging fraction ~ 0.8", 0.80, staging_frac, 0.05);
    check("T4: gemv sustained ~ 80% of 2bw peak", 0.806,
          out.report.sustained_mflops() * 1e6 / (2.0 * 1.3e9 / 8.0), 0.05);
  }

  // --- Table 4 GEMM (node level; sustained is size-invariant) --------------
  {
    machine::NodeConfig nc;
    nc.clock_mhz = 130.0;
    nc.dram_bytes_per_s = 3.2e9;
    nc.dram_words = 1u << 18;
    machine::ComputeNode node(nc);
    blas3::MmOnNodeConfig mc;
    mc.b = 256;
    blas3::MmOnNodeEngine engine(node, mc);
    const std::size_t n = 256;
    const auto out = engine.run(rng.matrix(n, n), rng.matrix(n, n), n);
    check("T4: gemm sustained GFLOPS", 2.06, out.report.sustained_gflops(), 0.03);
    const double sram_wpc =
        out.report.sram_words / double(out.report.compute_cycles);
    check("T4: gemm C' SRAM words/cycle", 2.0, sram_wpc, 0.01);
  }

  // --- Figure 9 -------------------------------------------------------------
  {
    const auto pts = model::figure9(area, vp50);
    check("F9: max PEs on XC2VP50", 10, double(pts.size()), 0);
    check("F9: 2.5 GFLOPS at 10 PEs", 2.5, pts.back().gflops, 0.01);
    check("F9: clock at 10 PEs (MHz)", 125, pts.back().clock_mhz, 0.01);
  }

  // --- Figures 11/12 --------------------------------------------------------
  {
    const auto p50 = model::project_chassis(area, vp50, 1600, 200.0, 6, 2048);
    const auto p100 =
        model::project_chassis(area, machine::xc2vp100(), 1600, 200.0, 6, 2048);
    check("F11: best-corner chassis GFLOPS > 27", 27.0, p50.gflops, 0.01);
    check("F12: VP100 ~ 50 GFLOPS", 50.4, p100.gflops, 0.02);
    check("F12: VP100/VP50 ~ 2x", 2.0, p100.gflops / p50.gflops, 0.1);
  }

  // --- Sec 6.4.2 -------------------------------------------------------------
  {
    const auto s = model::project_system(12, 8, 2048, 130.0, 2.06);
    check("6.4.2: 12-chassis GFLOPS", 148.3, s.gflops, 0.005);
    check("6.4.2: DRAM need (MB/s)", 877.5, s.dram_bytes_per_s / 1e6, 0.005);
    check("6.4.2: bandwidth met", 1.0, s.bandwidth_met ? 1.0 : 0.0, 0);
  }

  // --- Sec 6.3 ---------------------------------------------------------------
  check("6.3: FPGA/Opteron dgemm ratio ~ 0.5", 0.50, 2.06 / 4.1, 0.05);

  // --- Sec 5.1 models --------------------------------------------------------
  {
    blas3::MmArrayConfig mc;
    mc.k = 4;
    mc.m = 8;
    mc.adder_stages = 8;
    mc.mem_words_per_cycle = 8.0;
    blas3::MmArrayEngine engine(mc);
    const std::size_t n = 32;
    const auto out = engine.run(rng.matrix(n, n), rng.matrix(n, n), n);
    check("5.1: cycles ~ n^3/k", double(engine.model_cycles(n)),
          double(out.report.cycles), 0.01);
    check("5.1: I/O words = 2n^3/m + n^2", model::mm_io_words(n, 8),
          out.report.sram_words, 0.001);
  }

  // --- print ----------------------------------------------------------------
  bench::heading("Reproduction scoreboard");
  TextTable t({"Claim", "Expected", "Measured", "Status"});
  int failures = 0;
  for (const auto& c : checks) {
    t.row(c.claim, TextTable::num(c.expected, 3), TextTable::num(c.measured, 3),
          c.pass() ? "PASS" : "FAIL");
    if (!c.pass()) ++failures;
  }
  bench::print_table(t);
  std::printf("%zu checks, %d failures\n", checks.size(), failures);
  return failures == 0 ? 0 : 1;
}
