#include "blas2/mxv_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "mem/channel.hpp"
#include "sim/mac_reduce.hpp"
#include "telemetry/session.hpp"

namespace xd::blas2 {

namespace {

/// Row-major A streamed k words per cycle against lane-striped local x. x is
/// a pre-converted bit panel (every row reuses it); A is touched once, so
/// each group's lanes are copied into an L1-resident panel right before the
/// multiply, as the dot feeder does, instead of converting all of A up
/// front.
struct RowFeeder {
  const double* a;
  const u64* xbits;
  std::size_t rows, cols;
  unsigned k;
  mem::Channel& channel;
  u64* apanel;
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
    std::memcpy(apanel, a + row * cols + col, lanes * sizeof(double));
    be.mul_n(apanel, xbits + col, products, lanes);
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
  telemetry::Session* tel = cfg_.telemetry;
  const auto len_of = [&](std::size_t) { return cols; };

  MxvOutcome out;
  out.y.assign(rows, 0.0);
  out.report.design = cat("gemv-tree k=", std::to_string(k));
  out.report.flops = 2ull * rows * cols;
  out.report.clock_mhz = cfg_.clock_mhz;
  const auto finish = [&](u64 cycles, u64 stalls, u64 streamed_words) {
    out.report.cycles = cycles;
    out.report.compute_cycles = cycles;
    out.report.stall_cycles = stalls;
    out.report.sram_words = static_cast<double>(streamed_words + rows);  // + y out
    if (tel) {
      tel->phase("compute", cycles);
      tel->histogram("blas2.gemv.row_words").observe(static_cast<double>(cols));
    }
  };

  sim::TreeScratchLease scratch(
      sim::mac_reduce_key(k, cfg_.adder_stages, cfg_.multiplier_stages));
  const bool traced = tel && tel->trace().enabled();
  if (const sim::Schedule* sched =
          sim::replayable(cfg_.schedule, traced, rows, len_of)) {
    const std::size_t groups = (cols + k - 1) / k;
    const fp::Backend& be = fp::active_backend();
    sim::replay(*sched, *scratch, out.y,
                [&](std::size_t r0, std::size_t r1, u64* dst) {
                  for (std::size_t r = r0; r < r1; ++r, dst += groups) {
                    be.mac_groups(a.data() + r * cols, x.data(), dst, cols, k);
                  }
                });
    finish(sched->cycles, sched->stall_cycles, sched->streamed_words);
    if (tel) tel->metrics().merge_from(sched->fragment);
    return out;
  }

  mem::Channel channel(cfg_.mem_words_per_cycle, "mxv.mem",
                       std::max(cfg_.mem_words_per_cycle + 2.0,
                                static_cast<double>(k)));
  // Local x storage, lane-striped exactly as the paper describes; pre-convert
  // to bits once (preload phase, not streamed during compute). x and the A
  // group panel live in the scratch's reusable staging vectors.
  scratch->xbits.resize(cols);
  std::memcpy(scratch->xbits.data(), x.data(), cols * sizeof(double));
  scratch->abits.resize(k);
  RowFeeder feed{a.data(), scratch->xbits.data(), rows, cols, k, channel,
                 scratch->abits.data()};
  sim::ScheduleRecorder rec(cfg_.schedule, *scratch);
  const auto run = sim::run_mac_reduce(*scratch, k, feed, out.y, tel, 0, &rec);
  const auto publish_datapath = [&](telemetry::MetricsRegistry& reg) {
    channel.publish(reg, "mem.gemv.sram");
    sim::publish_mac_reduce(reg, *scratch, k, "gemv", "blas2.gemv", run.cycles,
                            out.report.flops, run.stall_cycles);
  };
  sim::finish_recording(rec, rows, len_of, k, run, feed.streamed_words,
                        publish_datapath);
  finish(run.cycles, run.stall_cycles, feed.streamed_words);
  if (tel) publish_datapath(tel->metrics());
  return out;
}

}  // namespace xd::blas2
