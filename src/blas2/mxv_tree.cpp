#include "blas2/mxv_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "mem/channel.hpp"
#include "sim/mac_reduce.hpp"
#include "telemetry/session.hpp"

namespace xd::blas2 {

namespace {

/// Row-major A streamed k words per cycle against lane-striped local x;
/// both are pre-converted bit panels, so a group is a straight mul_n.
struct RowFeeder {
  const u64* abits;
  const u64* xbits;
  std::size_t rows, cols;
  unsigned k;
  mem::Channel& channel;
  const fp::Backend& be = fp::active_backend();
  std::size_t row = 0, col = 0;
  u64 streamed_words = 0;

  void tick() { channel.tick(); }
  bool more() const { return row < rows; }
  void issue(u64 cycle, fp::MultiplierBank& mults) {
    const std::size_t lanes = std::min<std::size_t>(k, cols - col);
    const double words = static_cast<double>(lanes);  // only A streams
    if (!channel.can_transfer(words)) return;
    channel.transfer(words);
    streamed_words += lanes;
    u64* products = mults.stage(cycle, col + lanes == cols);
    be.mul_n(abits + row * cols + col, xbits + col, products, lanes);
    std::fill(products + lanes, products + mults.width(), fp::kPosZero);
    col += lanes;
    if (col == cols) {
      col = 0;
      ++row;
    }
  }
};

}  // namespace

MxvTreeEngine::MxvTreeEngine(const MxvTreeConfig& cfg) : cfg_(cfg) {
  sim::require_mac_reduce_config("GEMV tree engine", cfg.k,
                                 cfg.mem_words_per_cycle);
}

u64 MxvTreeEngine::io_lower_bound_cycles(std::size_t rows, std::size_t cols) const {
  return static_cast<u64>(std::ceil(static_cast<double>(rows) *
                                    static_cast<double>(cols) /
                                    cfg_.mem_words_per_cycle));
}

MxvOutcome MxvTreeEngine::run(const std::vector<double>& a, std::size_t rows,
                              std::size_t cols, const std::vector<double>& x) {
  require(rows >= 1 && cols >= 1, "GEMV needs a non-empty matrix");
  require(a.size() == rows * cols, "GEMV: matrix size mismatch");
  require(x.size() == cols, "GEMV: x length mismatch");

  const unsigned k = cfg_.k;
  mem::Channel channel(cfg_.mem_words_per_cycle, "mxv.mem",
                       std::max(cfg_.mem_words_per_cycle + 2.0,
                                static_cast<double>(k)));
  sim::TreeScratchLease scratch(
      sim::mac_reduce_key(k, cfg_.adder_stages, cfg_.multiplier_stages));

  // Local x storage, lane-striped exactly as the paper describes; pre-convert
  // to bits once (preload phase, not streamed during compute). The A panel is
  // pre-converted the same way. Both panels live in the scratch's reusable
  // staging vectors.
  scratch->xbits.resize(cols);
  std::memcpy(scratch->xbits.data(), x.data(), cols * sizeof(double));
  scratch->abits.resize(a.size());
  std::memcpy(scratch->abits.data(), a.data(), a.size() * sizeof(double));
  RowFeeder feed{scratch->abits.data(), scratch->xbits.data(), rows, cols, k,
                 channel};

  MxvOutcome out;
  out.y.assign(rows, 0.0);
  const auto run = sim::run_mac_reduce(*scratch, k, feed, out.y, cfg_.telemetry);

  out.report.design = cat("gemv-tree k=", std::to_string(k));
  out.report.cycles = run.cycles;
  out.report.compute_cycles = run.cycles;
  out.report.flops = 2ull * rows * cols;
  out.report.stall_cycles = run.stall_cycles;
  out.report.sram_words =
      static_cast<double>(feed.streamed_words + rows);  // + y out
  out.report.clock_mhz = cfg_.clock_mhz;

  if (telemetry::Session* tel = cfg_.telemetry) {
    tel->phase("compute", run.cycles);
    channel.publish(tel->metrics(), "mem.gemv.sram");
    sim::publish_mac_reduce(*tel, *scratch, k, "gemv", "blas2.gemv", run.cycles,
                            out.report.flops, run.stall_cycles);
    tel->histogram("blas2.gemv.row_words").observe(static_cast<double>(cols));
  }
  return out;
}

}  // namespace xd::blas2
