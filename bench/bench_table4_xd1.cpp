// Reproduces Table 4: Level 2 and Level 3 BLAS on a single FPGA in Cray XD1.
//
//  - GEMV (tree, k = 4): cycle-accurate at the paper's n = 1024, with the
//    DRAM->SRAM staging phase simulated at the measured 1.3 GB/s (the paper's
//    8.0 ms total / 1.6 ms compute split) and the SRAM-resident variant
//    (1.05 GFLOPS).
//  - GEMM (k = 8, m = 8, b = 512): full-scale node-level run at the paper's
//    n = 512 (C' through real SRAM ports, A/B/C across the RapidArray link),
//    plus a cycle-accurate PE-array cross-check at n = 256 and the
//    analytical model column.
#include "bench_util.hpp"
#include "blas2/mxv_on_node.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "blas3/mm_on_node.hpp"
#include "common/random.hpp"
#include "host/config.hpp"
#include "host/reference.hpp"
#include "machine/area.hpp"
#include "model/perf_model.hpp"

using namespace xd;

int main() {
  Rng rng(4);
  const host::ContextConfig cfg;
  const machine::AreaModel area;
  const auto vp50 = machine::xc2vp50();

  // ----------------------------------------------------------- Level 2 ----
  // The full node-level pipeline: DMA staging over the RapidArray link into
  // the four SRAM banks, bank-striped streaming, y write-back.
  const std::size_t n2 = 1024;
  const auto a2 = rng.matrix(n2, n2);
  const auto x2 = rng.vector(n2);
  machine::NodeConfig node_cfg;
  node_cfg.clock_mhz = 164.0;
  node_cfg.dram_bytes_per_s = 1.3e9;
  node_cfg.dram_words = 2u << 20;
  machine::ComputeNode node_dram(node_cfg);
  machine::ComputeNode node_sram(node_cfg);
  blas2::NodeGemvEngine eng_dram(node_dram);
  blas2::NodeGemvEngine eng_sram(node_sram);
  const auto from_dram = eng_dram.run(a2, n2, n2, x2, /*from_dram=*/true);
  const auto from_sram = eng_sram.run(a2, n2, n2, x2, /*from_dram=*/false);
  const auto ref2 = host::ref_gemv(a2, n2, n2, x2);
  const double err2 = host::max_abs_diff(from_dram.y, ref2);
  const auto gemv_area = area.mxv_design_xd1(cfg.gemv_k);

  const double gemv_dram_peak = model::gemv_peak_flops(1.3 * kGB);

  bench::heading("Table 4, Level 2: GEMV on one XD1 FPGA (n = 1024, k = 4)");
  TextTable t2({"Metric", "Measured", "Paper"});
  t2.row("Area (slices)", gemv_area.slices, "13772");
  t2.row("% of total area", bench::pct(gemv_area.fraction_of(vp50)), "58%");
  t2.row("Clock", cat(TextTable::num(gemv_area.clock_mhz, 0), " MHz"), "164 MHz");
  t2.row("SRAM bandwidth",
         bench::gbs(from_sram.report.sram_bytes_per_s()), "5.9 GB/s*");
  t2.row("DRAM bandwidth (staging)", bench::gbs(1.3 * kGB), "1.3 GB/s");
  t2.row("Total latency (from DRAM)",
         cat(TextTable::num(from_dram.report.seconds() * 1e3, 2), " ms"),
         "8.0 ms");
  t2.row("Compute latency",
         cat(TextTable::num(from_sram.report.seconds() * 1e3, 2), " ms"),
         "1.6 ms");
  t2.row("Sustained (from DRAM)",
         bench::mflops(from_dram.report.sustained_mflops() * 1e6), "262 MFLOPS");
  t2.row("% of DRAM-bound peak",
         bench::pct(from_dram.report.sustained_mflops() * 1e6 / gemv_dram_peak),
         "80.6%");
  t2.row("Sustained (from SRAM)",
         bench::mflops(from_sram.report.sustained_mflops() * 1e6),
         "1.05 GFLOPS");
  t2.row("Max |error| vs reference", TextTable::num(err2, 3), "-");
  bench::print_table(t2);
  bench::report_row("gemv-node-from-dram", from_dram.report);
  bench::report_row("gemv-node-from-sram", from_sram.report);
  bench::note("* the hardware moves a 9th parity byte per word; we model the "
              "64-bit payload (4 words/cycle at 164 MHz = 5.25 GB/s).\n");

  // ----------------------------------------------------------- Level 3 ----
  // Cycle-accurate PE array at n = 256.
  const std::size_t n3 = 256;
  const auto a3 = rng.matrix(n3, n3);
  const auto b3 = rng.matrix(n3, n3);
  blas3::MmArrayConfig mc;  // k = 8, m = 8, 130 MHz
  blas3::MmArrayEngine array(mc);
  const auto c3 = array.run(a3, b3, n3);
  const double err3 = host::max_abs_diff(c3.c, host::ref_gemm(a3, b3, n3));

  // Full-scale node-level run at the paper's n = b = 512: every C' word
  // through the SRAM bank ports, every A/B/C word across the RapidArray
  // link (numerics computed separately; see blas3/mm_on_node.hpp).
  machine::NodeConfig mm_node_cfg;
  mm_node_cfg.clock_mhz = 130.0;
  mm_node_cfg.dram_bytes_per_s = 3.2e9;
  mm_node_cfg.dram_words = 1u << 20;
  machine::ComputeNode mm_node(mm_node_cfg);
  blas3::MmOnNodeEngine node_mm(mm_node);  // k = 8, m = 8, b = 512
  const auto a512 = rng.matrix(512, 512);
  const auto b512 = rng.matrix(512, 512);
  const auto measured512 = node_mm.run(a512, b512, 512);
  const double err512 =
      host::max_abs_diff(measured512.c, host::ref_gemm(a512, b512, 512));

  // The analytical model for the same configuration (cross-check column).
  blas3::MmHierConfig hc;
  hc.dram_words_per_cycle =
      3.2 * kGB / (kWordBytes * hc.clock_mhz * 1e6);  // XD1 RapidArray
  blas3::MmHierEngine hier(hc);
  const auto m512 = hier.project(512);
  const double mm_peak = model::mm_device_peak_flops(vp50, area.cores());
  const auto mm_area = area.mm_design_xd1(cfg.mm_k);

  bench::heading("Table 4, Level 3: GEMM on one XD1 FPGA (k = 8, m = 8, b = 512)");
  TextTable t3({"Metric", "Measured", "Paper"});
  t3.row("Area (slices)", mm_area.slices, "21029");
  t3.row("% of total area", bench::pct(mm_area.fraction_of(vp50)), "89%");
  t3.row("Clock", cat(TextTable::num(mm_area.clock_mhz, 0), " MHz"), "130 MHz");
  t3.row("SRAM bandwidth (C' stream)",
         bench::gbs(measured512.report.sram_words /
                    static_cast<double>(measured512.report.compute_cycles) *
                    kWordBytes * hc.clock_mhz * 1e6),
         "2.1 GB/s");
  t3.row("DRAM bandwidth",
         bench::gbs(measured512.report.dram_words /
                    static_cast<double>(measured512.report.cycles) *
                    kWordBytes * hc.clock_mhz * 1e6),
         "24.3-48.8 MB/s");
  t3.row("Total latency (n = 512)",
         cat(TextTable::num(measured512.report.seconds() * 1e3, 0), " ms (model ",
             TextTable::num(m512.report.seconds() * 1e3, 0), ")"),
         "131 ms");
  t3.row("Sustained",
         bench::mflops(measured512.report.sustained_gflops() * 1e9),
         "2.06 GFLOPS");
  t3.row("% of device peak (4.42 GFLOPS)",
         bench::pct(measured512.report.sustained_gflops() * 1e9 / mm_peak),
         "46.6%");
  t3.row("I/O fraction of latency",
         bench::pct(static_cast<double>(measured512.report.stall_cycles) /
                    static_cast<double>(measured512.report.cycles)),
         "0.7%");
  t3.row("Max |error| vs reference (n = 512)", TextTable::num(err512, 3), "-");
  bench::print_table(t3);
  bench::report_row("gemm-node-512", measured512.report);
  bench::report_row("gemm-array-256", c3.report);

  bench::heading("Cycle-accurate cross-check (PE array, n = 256)");
  TextTable cc({"Metric", "Value"});
  cc.row("Cycles measured", c3.report.cycles);
  cc.row("Model n^3/k", array.model_cycles(n3));
  cc.row("Deviation",
         bench::pct(static_cast<double>(c3.report.cycles) /
                        static_cast<double>(array.model_cycles(n3)) -
                    1.0));
  cc.row("Flops/cycle (2k = 16 ideal)",
         TextTable::num(c3.report.flops_per_cycle(), 3));
  cc.row("Stall cycles", c3.report.stall_cycles);
  cc.row("Max |error| vs reference", TextTable::num(err3, 3));
  bench::print_table(cc);
  return 0;
}
