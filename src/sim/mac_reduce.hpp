// The multiply-tree-reduce cycle loop shared by the Level-1/2 tree engines.
//
// Sec 4.1-4.2 build dot, GEMV and SpMXV from one datapath: k pipelined
// multipliers feed a (k-1)-adder tree, and the Sec 4.3 reduction circuit
// folds each vector or row into its result. Only the operand feed differs,
// so each engine supplies a Feeder and run_mac_reduce does the rest:
//
//   struct Feeder {
//     void tick();                                   // memory side, 1 cycle
//     bool more() const;                             // operands left to issue
//     void issue(u64 cycle, fp::MultiplierBank& m);  // stage <= 1 group
//   };
//
// issue() may decline (bandwidth not available this cycle). A staged group
// is m.stage(cycle, last_of_set) with all m.width() product slots filled,
// idle lanes padded with +0 so the tree sums them away.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "fp/backend.hpp"
#include "fp/softfloat.hpp"
#include "sim/schedule.hpp"
#include "sim/scratch.hpp"
#include "telemetry/session.hpp"

namespace xd::sim {

/// FIFO between the adder tree and the reduction circuit; absorbs the rare
/// cycles where the circuit refuses input (buffer swap pressure).
inline constexpr std::size_t kRedFifoCap = 64;

/// Cycles a run may take, counted from its start cycle, before it is
/// declared wedged.
inline constexpr u64 kWedgeBudget = 500'000'000;

/// Scratch key for k lanes under the active FP backend. The issue gate keeps
/// at most kRedFifoCap queued entries, but groups already in flight in the
/// multiplier bank and the tree still land after it closes; the FIFO's
/// capacity covers that worst case. k == 1 bypasses the tree, but the
/// scaffold still holds a 2-input one.
inline TreeScratch::Key mac_reduce_key(unsigned k, unsigned adder_stages,
                                       unsigned multiplier_stages) {
  const unsigned kk = std::max(2u, k);
  return {kk, adder_stages, multiplier_stages,
          kRedFifoCap + multiplier_stages +
              static_cast<std::size_t>(log2_floor(kk)) * adder_stages + 2,
          &fp::active_backend()};
}

/// Configuration checks common to the channel-fed tree engines.
inline void require_mac_reduce_config(std::string_view engine, unsigned k,
                                      double words_per_cycle) {
  require(k >= 1, cat(engine, " needs k >= 1"));
  require(k == 1 || is_pow2(k), "adder tree needs k to be a power of two");
  require(words_per_cycle > 0.0, "memory bandwidth must be positive");
}

struct MacReduceRun {
  u64 cycles = 0;        ///< last simulated cycle (absolute)
  u64 stall_cycles = 0;  ///< FIFO-head refusals + circuit input stalls
};

/// Drive the datapath until every set has produced its result into
/// `out[set_id]` (one set per element of `out`). Cycles count on from
/// `start_cycle`. Trace events go to `tel`'s trace when it is enabled; the
/// reduction circuit's value ops go to `rec`'s log when it records.
template <typename Feeder>
MacReduceRun run_mac_reduce(TreeScratch& s, unsigned k, Feeder& feed,
                            std::vector<double>& out,
                            telemetry::Session* tel = nullptr,
                            u64 start_cycle = 0,
                            ScheduleRecorder* rec = nullptr) {
  if (tel && tel->trace().enabled()) s.red.attach_trace(&tel->trace());
  if (rec) s.red.record_ops(rec->log());
  u64 cycle = start_cycle;
  u64 stalls = 0;
  std::size_t done = 0;
  while (done < out.size()) {
    if (++cycle - start_cycle > kWedgeBudget) {
      throw SimError("multiply-tree-reduce datapath wedged");
    }
    feed.tick();

    if (auto g = s.mults.pop_ready(cycle)) {
      if (k == 1) {
        s.red_fifo.push({g->products[0], g->last});
      } else {
        s.tree.issue(g->products, g->last ? 1 : 0);
      }
    }
    if (k >= 2) {
      s.tree.tick();
      if (auto r = s.tree.take_output()) s.red_fifo.push({r->bits, r->tag != 0});
    }

    // Offer the oldest pending tree output to the reduction circuit.
    std::optional<reduce::Input> rin;
    if (!s.red_fifo.empty()) {
      rin = reduce::Input{s.red_fifo.front().first, s.red_fifo.front().second};
    }
    const bool consumed = s.red.cycle(rin);
    if (rin) {
      if (consumed) {
        s.red_fifo.pop();
      } else {
        ++stalls;
      }
    }
    if (auto r = s.red.take_result()) {
      out.at(r->set_id) = fp::from_bits(r->bits);
      ++done;
    }

    if (feed.more() && s.red_fifo.size() < kRedFifoCap) feed.issue(cycle, s.mults);
  }
  return {cycle, stalls + s.red.stats().stall_cycles};
}

/// Publish the datapath's metrics after a run: the adder tree (k >= 2) as
/// fpu.<unit>.addtree.*, the circuit as reduce.<unit>.*, the multiplies as
/// fpu.<unit>.mul.ops, and <layer>.{runs,cycles,flops,stall_cycles}.
inline void publish_mac_reduce(telemetry::MetricsRegistry& reg,
                               const TreeScratch& s, unsigned k,
                               std::string_view unit, std::string_view layer,
                               u64 cycles, u64 flops, u64 stall_cycles) {
  if (k >= 2) s.tree.publish(reg, cat("fpu.", unit, ".addtree"));
  s.red.publish(reg, cat("reduce.", unit));
  reg.counter(cat("fpu.", unit, ".mul.ops")).add(flops / 2);
  reg.counter(cat(layer, ".runs")).add(1);
  reg.counter(cat(layer, ".cycles")).add(cycles);
  reg.counter(cat(layer, ".flops")).add(flops);
  reg.counter(cat(layer, ".stall_cycles")).add(stall_cycles);
}

/// After a simulated run: complete and publish `rec`'s schedule, when it
/// records. `publish_datapath(reg)` publishes the run's datapath metrics,
/// which become the schedule's telemetry fragment.
template <typename LenOf, typename PublishDatapath>
void finish_recording(ScheduleRecorder& rec, std::size_t sets, LenOf&& len_of,
                      unsigned k, const MacReduceRun& run, u64 streamed_words,
                      PublishDatapath&& publish_datapath) {
  Schedule* s = rec.schedule();
  if (!s) return;
  s->set_shape(sets, len_of, k);
  s->cycles = run.cycles;
  s->stall_cycles = run.stall_cycles;
  s->streamed_words = streamed_words;
  publish_datapath(s->fragment);
  rec.publish();
}

}  // namespace xd::sim
