#include "blas2/mxv_on_node.hpp"

#include <cstring>
#include <memory>

#include "machine/status_regs.hpp"
#include "sim/mac_reduce.hpp"
#include "telemetry/session.hpp"

namespace xd::blas2 {

namespace {

/// One read port per bank per cycle: bank e % k holds element e of A at
/// address e / k, so a full k-wide group issues every cycle.
struct BankFeeder {
  machine::ComputeNode& node;
  const u64* xbits;
  std::size_t rows, cols;
  unsigned k;
  const fp::Backend& be = fp::active_backend();
  std::size_t row = 0, col = 0;

  void tick() { node.tick(); }
  bool more() const { return row < rows; }
  void issue(u64 cycle, fp::MultiplierBank& mults) {
    const std::size_t base = row * cols + col;
    u64* products = mults.stage(cycle, col + k == cols);
    for (unsigned lane = 0; lane < k; ++lane) {
      const std::size_t e = base + lane;
      products[lane] = be.mul(node.sram(e % k).read(e / k), xbits[col + lane]);
    }
    std::fill(products + k, products + mults.width(), fp::kPosZero);
    col += k;
    if (col == cols) {
      col = 0;
      ++row;
    }
  }
};

}  // namespace

NodeGemvEngine::NodeGemvEngine(machine::ComputeNode& node,
                               const NodeGemvConfig& cfg)
    : node_(node), cfg_(cfg) {
  require(is_pow2(node.sram_bank_count()),
          "node GEMV needs a power-of-two SRAM bank count for the adder tree");
}

MxvOutcome NodeGemvEngine::run(const std::vector<double>& a, std::size_t rows,
                               std::size_t cols, const std::vector<double>& x,
                               bool from_dram) {
  const unsigned k = node_.sram_bank_count();
  require(rows >= 1 && cols >= 1, "GEMV needs a non-empty matrix");
  require(a.size() == rows * cols && x.size() == cols, "GEMV: size mismatch");
  require(cols % k == 0,
          "node GEMV streams one word per bank per cycle: cols must be a "
          "multiple of the bank count (pad the matrix)");
  const std::size_t per_bank = rows * cols / k;
  require(per_bank <= node_.sram(0).storage().words(),
          "matrix does not fit the SRAM banks");

  u64 cycle = 0;
  u64 staging_cycles = 0;

  // Sec 6.2 control protocol: the host announces the problem size and the
  // init command before any data moves; completion is polled at the end.
  std::unique_ptr<machine::StatusRegisters> regs;
  if (cfg_.with_handshake) {
    regs = std::make_unique<machine::StatusRegisters>(
        node_, cfg_.handshake_round_trip_cycles);
    cycle += regs->host_write(machine::StatusRegisters::Reg::ProblemSize, rows);
    cycle += regs->host_write(machine::StatusRegisters::Reg::Command,
                              machine::StatusRegisters::kCmdInit);
    regs->fpga_write(machine::StatusRegisters::Reg::Status,
                     machine::StatusRegisters::kStatusBusy);
  }

  // --- Stage A (bank-blocked layout, prepared by the host processor in its
  // own DRAM) across the RapidArray link into the four banks. -------------
  if (from_dram) {
    require(per_bank * k <= node_.dram().storage().words(),
            "modeled DRAM slice too small for A (increase dram_words)");
    // Convert A to bit patterns once, then permute into the bank-blocked
    // layout (the permutation only moves words, it never re-converts).
    std::vector<u64> abits(rows * cols);
    std::memcpy(abits.data(), a.data(), rows * cols * sizeof(double));
    std::vector<u64> bankblock(per_bank * k);
    for (std::size_t e = 0; e < rows * cols; ++e) {
      bankblock[(e % k) * per_bank + e / k] = abits[e];
    }
    node_.dram().storage().load(0, bankblock);
    for (unsigned b = 0; b < k; ++b) {
      node_.dma().start(node_.dram().storage(), b * per_bank,
                        node_.sram(b).storage(), 0, per_bank);
      while (node_.dma().active()) {
        node_.tick();
        ++cycle;
      }
    }
    // The processor also loads x into the design's local storage (cols words
    // over the same link).
    double pending = static_cast<double>(cols);
    while (pending > 0.0) {
      node_.tick();
      ++cycle;
      while (pending > 0.0 && node_.dram().link().can_transfer(1.0)) {
        node_.dram().link().transfer(1.0);
        pending -= 1.0;
      }
    }
    staging_cycles = cycle;
  } else {
    // A already resides in the banks (host-side initialization).
    for (std::size_t e = 0; e < rows * cols; ++e) {
      node_.sram(e % k).storage().load(e / k, {fp::to_bits(a[e])});
    }
  }

  // --- Compute: one word per bank per cycle through the tree datapath. ----
  sim::TreeScratchLease scratch(
      sim::mac_reduce_key(k, cfg_.adder_stages, cfg_.multiplier_stages));
  scratch->xbits.resize(cols);
  std::memcpy(scratch->xbits.data(), x.data(), cols * sizeof(double));
  BankFeeder feed{node_, scratch->xbits.data(), rows, cols, k};

  MxvOutcome out;
  out.y.assign(rows, 0.0);
  const auto run =
      sim::run_mac_reduce(*scratch, k, feed, out.y, cfg_.telemetry, cycle);
  cycle = run.cycles;

  // --- Write y back to DRAM over the link (from-DRAM protocol only). ------
  if (from_dram) {
    double pending = static_cast<double>(rows);
    while (pending > 0.0) {
      node_.tick();
      ++cycle;
      while (pending > 0.0 && node_.dram().link().can_transfer(1.0)) {
        node_.dram().link().transfer(1.0);
        pending -= 1.0;
      }
    }
  }

  if (regs) {
    // The design raises Done; the host's poll finds it on the next round trip.
    regs->fpga_write(machine::StatusRegisters::Reg::Status,
                     machine::StatusRegisters::kStatusDone);
    cycle += regs->host_poll_until(machine::StatusRegisters::kStatusDone,
                                   cfg_.handshake_poll_interval, 1'000'000);
  }

  out.report.design = cat("gemv-on-node k=", k);
  out.report.cycles = cycle;
  out.report.staging_cycles = staging_cycles;
  out.report.compute_cycles = cycle - staging_cycles;
  out.report.flops = 2ull * rows * cols;
  out.report.stall_cycles = run.stall_cycles;
  out.report.sram_words = static_cast<double>(rows * cols);
  out.report.dram_words =
      from_dram ? static_cast<double>(rows * cols + cols + rows) : 0.0;
  out.report.clock_mhz = node_.clock_mhz();

  // Phases come from the measured boundary, not a formula: staging is the
  // DMA + x-load prefix, compute the rest (stream + write-back + handshake).
  if (telemetry::Session* tel = cfg_.telemetry) {
    if (staging_cycles > 0) tel->phase("staging", staging_cycles);
    tel->phase("compute", cycle - staging_cycles);
    for (unsigned bank = 0; bank < k; ++bank) {
      node_.sram(bank).publish(tel->metrics(), cat("mem.sram.bank", bank));
    }
    node_.dram().link().publish(tel->metrics(), "mem.dram.link");
    sim::publish_mac_reduce(tel->metrics(), *scratch, k, "gemv",
                            "blas2.gemv_node", cycle,
                            out.report.flops, run.stall_cycles);
    tel->counter("blas2.gemv_node.staging_cycles").add(staging_cycles);
  }
  return out;
}

}  // namespace xd::blas2
