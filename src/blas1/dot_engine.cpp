#include "blas1/dot_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/mac_reduce.hpp"
#include "telemetry/session.hpp"

namespace xd::blas1 {

namespace {

/// A batch of dense (u, v) pairs streamed k elements of each per cycle.
/// Dot touches every element exactly once, so whole-vector pre-conversion
/// would double the memory traffic (write the converted copy, read it
/// back); converting one k-wide group into L1-resident panels right before
/// the multiply costs the same conversions without the extra pass.
struct DotFeeder {
  const std::vector<double>* const* us;
  const std::vector<double>* const* vs;
  std::size_t count;
  unsigned k;
  mem::Channel& channel;
  u64* upanel;
  u64* vpanel;
  const fp::Backend& be = fp::active_backend();
  std::size_t pair = 0, pos = 0;
  u64 streamed_words = 0;

  void tick() { channel.tick(); }
  bool more() const { return pair < count; }
  void issue(u64 cycle, fp::MultiplierBank& mults) {
    const auto& u = *us[pair];
    const auto& v = *vs[pair];
    const std::size_t lanes = std::min<std::size_t>(k, u.size() - pos);
    const double words = 2.0 * static_cast<double>(lanes);
    if (!channel.can_transfer(words)) return;
    channel.transfer(words);
    streamed_words += 2 * lanes;
    std::memcpy(upanel, &u[pos], lanes * sizeof(double));
    std::memcpy(vpanel, &v[pos], lanes * sizeof(double));
    u64* products = mults.stage(cycle, pos + lanes == u.size());
    be.mul_n(upanel, vpanel, products, lanes);
    std::fill(products + lanes, products + mults.width(), fp::kPosZero);
    pos += lanes;
    if (pos == u.size()) {
      pos = 0;
      ++pair;
    }
  }
};

}  // namespace

DotEngine::DotEngine(const DotConfig& cfg) : cfg_(cfg) {
  sim::require_mac_reduce_config("dot engine", cfg.k, cfg.mem_words_per_cycle);
}

u64 DotEngine::io_lower_bound_cycles(u64 total_elements) const {
  return static_cast<u64>(
      std::ceil(2.0 * static_cast<double>(total_elements) / cfg_.mem_words_per_cycle));
}

DotOutcome DotEngine::run(const std::vector<std::vector<double>>& us,
                          const std::vector<std::vector<double>>& vs) {
  require(us.size() == vs.size(), "dot batch: mismatched u/v counts");
  std::vector<const std::vector<double>*> up(us.size()), vp(vs.size());
  for (std::size_t i = 0; i < us.size(); ++i) {
    up[i] = &us[i];
    vp[i] = &vs[i];
  }
  return run_impl(up.data(), vp.data(), us.size());
}

DotOutcome DotEngine::run_pair(const std::vector<double>& u,
                               const std::vector<double>& v) {
  const std::vector<double>* up = &u;
  const std::vector<double>* vp = &v;
  return run_impl(&up, &vp, 1);
}

DotOutcome DotEngine::run_impl(const std::vector<double>* const* us,
                               const std::vector<double>* const* vs,
                               std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    if (us[i]->empty() || us[i]->size() != vs[i]->size()) {
      require(false, cat("dot pair ", i,
                         ": vectors must be equal-length and non-empty"));
    }
  }

  const unsigned k = cfg_.k;
  telemetry::Session* tel = cfg_.telemetry;
  const auto len_of = [&](std::size_t i) { return us[i]->size(); };
  u64 flops = 0;
  for (std::size_t i = 0; i < count; ++i) flops += 2 * us[i]->size();

  DotOutcome out;
  out.results.assign(count, 0.0);
  out.report.design = cat("dot k=", std::to_string(k));
  out.report.flops = flops;
  out.report.clock_mhz = cfg_.clock_mhz;
  const auto finish = [&](u64 cycles, u64 stalls, u64 streamed_words) {
    out.report.cycles = cycles;
    out.report.compute_cycles = cycles;
    out.report.stall_cycles = stalls;
    out.report.sram_words = static_cast<double>(streamed_words);
    if (tel) {
      tel->phase("compute", cycles);
      auto lengths = tel->histogram("blas1.dot.vector_words");
      for (std::size_t i = 0; i < count; ++i) {
        lengths.observe(static_cast<double>(us[i]->size()));
      }
    }
  };

  sim::TreeScratchLease scratch(
      sim::mac_reduce_key(k, cfg_.adder_stages, cfg_.multiplier_stages));
  const bool traced = tel && tel->trace().enabled();
  if (const sim::Schedule* sched =
          sim::replayable(cfg_.schedule, traced, count, len_of)) {
    const fp::Backend& be = fp::active_backend();
    sim::replay(*sched, *scratch, out.results,
                [&](std::size_t i0, std::size_t i1, u64* dst) {
                  for (std::size_t i = i0; i < i1; ++i) {
                    const std::size_t n = us[i]->size();
                    be.mac_groups(us[i]->data(), vs[i]->data(), dst, n, k);
                    dst += (n + k - 1) / k;
                  }
                });
    finish(sched->cycles, sched->stall_cycles, sched->streamed_words);
    if (tel) tel->metrics().merge_from(sched->fragment);
    return out;
  }

  // The burst allowance covers one full lane group (2k words) so a channel
  // slower than the group size still feeds the lanes every few cycles.
  mem::Channel channel(cfg_.mem_words_per_cycle, "dot.mem",
                       std::max(cfg_.mem_words_per_cycle + 2.0, 2.0 * k));
  scratch->abits.resize(k);
  scratch->xbits.resize(k);
  DotFeeder feed{us, vs, count, k, channel, scratch->abits.data(),
                 scratch->xbits.data()};
  sim::ScheduleRecorder rec(cfg_.schedule, *scratch);
  const auto run =
      sim::run_mac_reduce(*scratch, k, feed, out.results, tel, 0, &rec);
  const auto publish_datapath = [&](telemetry::MetricsRegistry& reg) {
    channel.publish(reg, "mem.dot.sram");
    sim::publish_mac_reduce(reg, *scratch, k, "dot", "blas1.dot", run.cycles,
                            flops, run.stall_cycles);
  };
  sim::finish_recording(rec, count, len_of, k, run, feed.streamed_words,
                        publish_datapath);
  finish(run.cycles, run.stall_cycles, feed.streamed_words);
  if (tel) publish_datapath(tel->metrics());
  return out;
}

}  // namespace xd::blas1
