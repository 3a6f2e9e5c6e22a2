// Quickstart: the three BLAS operations through the public xdblas API.
//
// A Runtime models one Cray XD1 node (Xilinx XC2VP50 + 4 SRAM banks + DRAM
// over RapidArray) running the paper's designs: every run(OpDesc) computes
// the real numerics through the simulated FPGA datapath and returns an
// Outcome — the values plus a performance report in the paper's terms
// (cycles, achievable clock, sustained MFLOPS, bandwidths).
//
//   ./examples/quickstart
#include <cstdio>

#include "common/random.hpp"
#include "host/runtime.hpp"
#include "host/reference.hpp"

using namespace xd;

namespace {

void print_report(const host::PerfReport& r) {
  std::printf("  design            : %s\n", r.design.c_str());
  std::printf("  cycles            : %llu (%.3f ms at %.0f MHz)\n",
              static_cast<unsigned long long>(r.cycles), r.seconds() * 1e3,
              r.clock_mhz);
  std::printf("  sustained         : %.1f MFLOPS (%.2f flops/cycle)\n",
              r.sustained_mflops(), r.flops_per_cycle());
  if (r.staging_cycles > 0) {
    std::printf("  staging (DRAM)    : %llu cycles (%.1f%% of total)\n",
                static_cast<unsigned long long>(r.staging_cycles),
                100.0 * static_cast<double>(r.staging_cycles) /
                    static_cast<double>(r.cycles));
  }
  std::printf("\n");
}

}  // namespace

int main() {
  Rng rng(2005);
  host::Runtime rt(host::ContextConfig{});  // one XD1 node, paper designs

  // ---- Level 1: dot product (k = 2 multipliers, reduction circuit) ----
  std::printf("Level 1: dot product, n = 4096\n");
  const auto u = rng.vector(4096);
  const auto v = rng.vector(4096);
  const auto d = rt.run(host::OpDesc::dot(u, v));
  std::printf("  result            : %.12f (reference %.12f)\n", d.values[0],
              host::ref_dot(u, v));
  print_report(d.report);

  // ---- Level 2: GEMV (tree architecture, k = 4) ----
  std::printf("Level 2: y = A x, n = 512, A streamed from SRAM\n");
  const std::size_t n = 512;
  const auto a = rng.matrix(n, n);
  const auto x = rng.vector(n);
  const auto y = rt.run(host::OpDesc::gemv(a, n, n, x));
  std::printf("  max |y - y_ref|   : %.3e\n",
              host::max_abs_diff(y.values, host::ref_gemv(a, n, n, x)));
  print_report(y.report);

  std::printf("Level 2 again, but A starts in processor DRAM\n");
  const auto y2 = rt.run(host::OpDesc::gemv(a, n, n, x, host::Placement::Dram));
  print_report(y2.report);

  // ---- Level 3: GEMM (linear PE array + SRAM blocking) ----
  std::printf("Level 3: C = A B, n = 128 (k = 8 PEs, m = 8, b = 64)\n");
  host::ContextConfig cfg;
  cfg.mm_b = 64;
  host::Runtime rt3(cfg);
  const std::size_t n3 = 128;
  const auto A = rng.matrix(n3, n3);
  const auto B = rng.matrix(n3, n3);
  const auto C = rt3.run(host::OpDesc::gemm(A, B, n3));
  std::printf("  max |C - C_ref|   : %.3e\n",
              host::max_abs_diff(C.values, host::ref_gemm(A, B, n3)));
  print_report(C.report);

  std::printf("Done. See DESIGN.md for the architecture map and\n"
              "EXPERIMENTS.md for the full paper-vs-measured index.\n");
  return 0;
}
