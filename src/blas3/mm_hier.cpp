#include "blas3/mm_hier.hpp"

#include <algorithm>
#include <cmath>

#include "blas3/gemm_rows.hpp"
#include "common/util.hpp"
#include "model/perf_model.hpp"
#include "telemetry/session.hpp"

namespace xd::blas3 {

MmHierEngine::MmHierEngine(const MmHierConfig& cfg) : cfg_(cfg) {
  require(cfg.l >= 1, "hierarchical GEMM needs l >= 1");
  require(cfg.k >= 1 && cfg.m >= 1 && cfg.m % cfg.k == 0,
          "hierarchical GEMM needs m divisible by k");
  // b must tile into m x m blocks and give every FPGA at least one block
  // column. (The paper's 12-chassis projection uses l = 72 with b = 2048,
  // where b/(m l) is not integral — the last round-robin turn is simply
  // short, so we do not require divisibility by m*l.)
  require(cfg.b >= static_cast<std::size_t>(cfg.m) * cfg.l && cfg.b % cfg.m == 0,
          "hierarchical GEMM needs b >= m*l and b a multiple of m");
  require(cfg.dram_words_per_cycle > 0.0 && cfg.link_words_per_cycle > 0.0,
          "bandwidths must be positive");
  const std::size_t slots = static_cast<std::size_t>(cfg.m) * cfg.m / cfg.k;
  require(slots >= cfg.adder_stages,
          cat("hazard condition violated: m^2/k = ", slots, " < adder depth ",
              cfg.adder_stages));
}

u64 MmHierEngine::model_cycles(std::size_t n) const {
  const u64 compute = static_cast<u64>(n) * n * n / (cfg_.k * cfg_.l);
  return compute + static_cast<u64>(cfg_.k) * cfg_.l;  // array traversal skew
}

void MmHierEngine::fill_model(MmHierOutcome& out, std::size_t rows,
                              std::size_t n) const {
  const double db = static_cast<double>(cfg_.b);

  // DRAM traffic (Sec 5.2, rows-general): each rows x n panel multiply
  // reads two b x b panels per step; C leaves once (rows x n words). The
  // formulas live in model/perf_model so the shard scheduler's analytic
  // model and this engine can never drift; rows == n reproduces the square
  // arithmetic bit-for-bit.
  const double dram_words = model::mm_hier_panel_dram_words(rows, n, cfg_.b);
  const u64 compute_cycles =
      model::mm_hier_panel_model_cycles(rows, n, cfg_.k, cfg_.l);
  const u64 cycles = model::mm_hier_panel_cycles(
      rows, n, cfg_.k, cfg_.l, cfg_.b,
      std::min(cfg_.dram_words_per_cycle, cfg_.link_words_per_cycle));

  out.report.design = cat("mm-hier l=", cfg_.l, " k=", cfg_.k, " m=", cfg_.m,
                          " b=", cfg_.b);
  out.report.cycles = cycles;
  out.report.compute_cycles = compute_cycles;
  out.report.flops = 2ull * rows * n * n;
  out.report.stall_cycles = cycles - compute_cycles;
  out.report.dram_words = dram_words;
  // Per-FPGA C' traffic: one read + one write per cycle (Sec 6.3), plus the
  // C-panel stream when l > 1 (one m x m block per m^2 b/(k l) cycles).
  const double cpanel_rate =
      cfg_.l > 1 ? 2.0 * static_cast<double>(cfg_.k) * cfg_.l / db : 0.0;
  out.required_sram_words_per_cycle = 2.0 + cpanel_rate;
  out.report.sram_words =
      out.required_sram_words_per_cycle * static_cast<double>(compute_cycles);
  out.report.clock_mhz = cfg_.clock_mhz;

  out.required_dram_words_per_cycle =
      3.0 * static_cast<double>(cfg_.k) * cfg_.l / db;
  out.required_link_words_per_cycle = out.required_dram_words_per_cycle;
  out.sram_panel_words = 2.0 * db * db;

  // The model is the single timing source for this engine, so the phase
  // breakdown and metrics come from it: "compute" is the PE-array busy time,
  // "staging" the I/O overhang beyond it, tiling [0, cycles) exactly.
  if (telemetry::Session* tel = cfg_.telemetry) {
    tel->phase("compute", compute_cycles);
    tel->phase("staging", cycles - compute_cycles);
    tel->gauge("mem.dram.gemm.words").set(dram_words);
    tel->gauge("mem.dram.gemm.required_words_per_cycle")
        .set(out.required_dram_words_per_cycle);
    tel->gauge("mem.link.gemm.required_words_per_cycle")
        .set(out.required_link_words_per_cycle);
    tel->gauge("mem.sram.gemm.panel_words").set(out.sram_panel_words);
    tel->gauge("mem.sram.gemm.required_words_per_cycle")
        .set(out.required_sram_words_per_cycle);
    tel->counter("fpu.gemm.mac.ops").add(static_cast<u64>(rows) * n * n);
    tel->gauge("fpu.gemm.pe.count")
        .set(static_cast<double>(cfg_.k) * cfg_.l);
    tel->counter("blas3.gemm.runs").add(1);
    tel->counter("blas3.gemm.cycles").add(cycles);
    tel->counter("blas3.gemm.compute_cycles").add(compute_cycles);
    tel->counter("blas3.gemm.flops").add(out.report.flops);
    tel->counter("blas3.gemm.stall_cycles").add(out.report.stall_cycles);
  }
}

MmHierOutcome MmHierEngine::project(std::size_t n) const {
  require(n % cfg_.b == 0, "n must be a multiple of b");
  MmHierOutcome out;
  fill_model(out, n, n);
  return out;
}

MmHierOutcome MmHierEngine::run(const std::vector<double>& a,
                                const std::vector<double>& b, std::size_t n) {
  return run_panel(a, n, b, n);
}

MmHierOutcome MmHierEngine::run_panel(const std::vector<double>& a,
                                      std::size_t rows,
                                      const std::vector<double>& b,
                                      std::size_t n) {
  require(n >= 1 && n % cfg_.b == 0, "n must be a positive multiple of b");
  require(rows >= 1, "GEMM panel needs at least one row");
  require(a.size() == rows * n && b.size() == n * n,
          "GEMM: matrix size mismatch");

  MmHierOutcome out;
  // Numerics: every C element accumulates its products in ascending inner
  // index — the exact order the PE array produces (validated bit-for-bit
  // against MmArrayEngine in tests), independent of the blocking. This is
  // what makes row-panel sharding bit-identical to a single full run.
  out.c = gemm_row_blocks(a, rows, b, n);

  fill_model(out, rows, n);
  return out;
}

}  // namespace xd::blas3
