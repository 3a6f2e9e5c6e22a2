#include "blas3/mm_on_node.hpp"

#include "blas3/gemm_rows.hpp"
#include "telemetry/session.hpp"

namespace xd::blas3 {

MmOnNodeEngine::MmOnNodeEngine(machine::ComputeNode& node,
                               const MmOnNodeConfig& cfg)
    : node_(node), cfg_(cfg) {
  require(cfg.k >= 1 && cfg.m >= 1 && cfg.m % cfg.k == 0,
          "node GEMM needs m divisible by k");
  require(static_cast<std::size_t>(cfg.m) * cfg.m / cfg.k >= 8,
          "node GEMM hazard condition: m^2/k >= 8");
  require(cfg.b % cfg.m == 0, "node GEMM needs b a multiple of m");
  require(node.sram_bank_count() >= 4,
          "node GEMM uses two C' banks and two C banks");
  require(static_cast<std::size_t>(cfg.b) * cfg.b <=
              2 * node.sram(0).storage().words(),
          "C' panel exceeds the two SRAM banks");
}

MmOutcome MmOnNodeEngine::run(const std::vector<double>& a,
                              const std::vector<double>& b, std::size_t n) {
  require(n >= 1 && n % cfg_.b == 0, "n must be a positive multiple of b");
  require(a.size() == n * n && b.size() == n * n, "GEMM: size mismatch");
  require(2 * n * n <= node_.dram().storage().words(),
          "modeled DRAM slice too small for A and B");

  const std::size_t m = cfg_.m;
  const std::size_t m2 = m * m;
  const u64 block_cycles = m2 * m / cfg_.k;  // per block product
  const std::size_t merge_interval = m / cfg_.k;  // C' touch every m/k cycles
  const std::size_t beta = cfg_.b / m;
  const std::size_t panels = n / cfg_.b;
  const std::size_t bank_words = node_.sram(0).storage().words();

  u64 cycle = 0;
  u64 input_stalls = 0;
  double prefetched = 0.0;   // A/B words fetched ahead of the consumer
  double c_backlog = 0.0;    // C words awaiting the link
  double dram_in = 0.0, dram_out = 0.0;
  std::size_t cprime_addr = 0;
  // Double-buffered on-chip staging: one B block-row + one A block ahead.
  const double prefetch_cap_ =
      2.0 * (static_cast<double>(cfg_.b) * m + static_cast<double>(m2));

  // One simulated clock cycle: SRAM C' merge traffic, link credit split
  // between the C output stream (via a C-bank read port) and the A/B
  // prefetch stream.
  auto tick_cycle = [&](bool computing) {
    node_.tick();
    ++cycle;
    if (computing && (merge_interval <= 1 || cycle % merge_interval == 0)) {
      // One C' read + one C' write per touch; the panel spans banks 0 and 1.
      const std::size_t bank = cprime_addr / bank_words;
      const std::size_t addr = cprime_addr % bank_words;
      node_.sram(bank).read(addr);
      node_.sram(bank).write(addr, 0);
      cprime_addr = (cprime_addr + 1) % (2 * bank_words);
    }
    auto& link = node_.dram().link();
    // C output has priority (one word per cycle through a C-bank port).
    if (c_backlog > 0.0 && link.can_transfer(1.0)) {
      link.transfer(1.0);
      c_backlog -= 1.0;
      dram_out += 1.0;
    }
    while (prefetched < prefetch_cap_ && link.can_transfer(1.0)) {
      link.transfer(1.0);
      prefetched += 1.0;
      dram_in += 1.0;
    }
  };

  // Host loads A and B into DRAM (free) — we only track the FPGA-side moves.
  // Fetch pattern of the Sec 5.2 algorithm at l = 1: per z, the B block-row
  // (b*m words) is staged on chip once; each A block (m^2 words) streams in
  // once and multiplies against all beta stored B blocks. Double-buffered
  // on-chip staging caps how far the link may run ahead.
  const double b_row_words = static_cast<double>(cfg_.b) * m;
  const double a_block_words = static_cast<double>(m2);

  auto demand = [&](double words) {
    while (prefetched < words) {
      tick_cycle(/*computing=*/false);
      ++input_stalls;
    }
    prefetched -= words;
  };

  u64 total_block_products = 0;
  for (std::size_t pi = 0; pi < panels; ++pi) {
    for (std::size_t pj = 0; pj < panels; ++pj) {
      for (std::size_t pq = 0; pq < panels; ++pq) {
        for (std::size_t z = 0; z < beta; ++z) {
          demand(b_row_words);  // B block-row z of this q-panel
          for (std::size_t g = 0; g < beta; ++g) {
            demand(a_block_words);  // A block (g, z)
            for (std::size_t h = 0; h < beta; ++h) {
              for (u64 t = 0; t < block_cycles; ++t) {
                tick_cycle(/*computing=*/true);
              }
              ++total_block_products;
            }
          }
        }
      }
      // C panel finished: b^2 words join the output stream.
      c_backlog += static_cast<double>(cfg_.b) * cfg_.b;
    }
  }
  while (c_backlog > 0.0) tick_cycle(/*computing=*/false);

  // Numerics: the validated ascending-inner accumulation order.
  MmOutcome out;
  out.c = gemm_row_blocks(a, n, b, n);

  out.report.design = cat("mm-on-node k=", cfg_.k, " m=", m, " b=", cfg_.b);
  out.report.cycles = cycle;
  out.report.compute_cycles = total_block_products * block_cycles;
  out.report.flops = 2ull * n * n * n;
  out.report.stall_cycles = input_stalls;
  out.report.sram_words =
      2.0 * static_cast<double>(total_block_products) * block_cycles /
      static_cast<double>(merge_interval ? merge_interval : 1);
  out.report.dram_words = dram_in + dram_out;
  out.report.clock_mhz = node_.clock_mhz();

  if (telemetry::Session* tel = cfg_.telemetry) {
    tel->phase("compute", cycle);
    for (unsigned bank = 0; bank < node_.sram_bank_count(); ++bank) {
      node_.sram(bank).publish(tel->metrics(), cat("mem.sram.bank", bank));
    }
    node_.dram().link().publish(tel->metrics(), "mem.dram.link");
    tel->counter("fpu.gemm.mac.ops").add(static_cast<u64>(n) * n * n);
    tel->gauge("fpu.gemm.pe.count").set(static_cast<double>(cfg_.k));
    tel->counter("blas3.gemm_node.runs").add(1);
    tel->counter("blas3.gemm_node.cycles").add(cycle);
    tel->counter("blas3.gemm_node.flops").add(out.report.flops);
    tel->counter("blas3.gemm_node.stall_cycles").add(input_stalls);
  }
  return out;
}

}  // namespace xd::blas3
