// Level 1 BLAS: tree-based dot-product architecture (Sec 4.1).
//
// k pipelined multipliers accept one element of each vector per cycle
// (2k words/cycle of input bandwidth when streaming); a (k-1)-adder tree sums
// the k products; the reduction circuit (Sec 4.3) accumulates the tree
// outputs into the scalar result. Because both vectors stream with no reuse,
// the operation is I/O bound: the engine throttles issue on a memory channel
// whose rate models the FPGA<->SRAM (or DRAM) bandwidth, so sustained
// performance degrades exactly as the available bandwidth does (Table 3).
//
// The engine processes a batch of dot products back-to-back; each product is
// one reduction set, exercising the multi-set capability of the circuit.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ring_fifo.hpp"
#include "fp/fpu.hpp"
#include "host/report.hpp"
#include "mem/channel.hpp"
#include "reduce/reduction_circuit.hpp"

namespace xd::telemetry {
class Session;
}
namespace xd::sim {
class ScheduleSlot;
}

namespace xd::blas1 {

struct DotConfig {
  unsigned k = 2;  ///< multipliers (paper: k=2 fits the XD1 SRAM bandwidth)
  unsigned adder_stages = fp::kAdderStages;
  unsigned multiplier_stages = fp::kMultiplierStages;
  /// Input bandwidth in words/cycle (e.g. 5.5 GB/s at 170 MHz ~= 4.04).
  double mem_words_per_cycle = 4.0;
  double clock_mhz = 170.0;  ///< for the report only
  /// Optional telemetry sink (metrics under mem.dot.* / fpu.dot.* /
  /// reduce.dot.* / blas1.dot.*, a "compute" phase span, and trace events
  /// when the session's trace is enabled). Null disables instrumentation.
  telemetry::Session* telemetry = nullptr;
  /// Optional schedule slot (sim/schedule.hpp): the first run records the
  /// reduction schedule into it, later runs with the same set lengths replay
  /// it instead of simulating. Null always simulates.
  sim::ScheduleSlot* schedule = nullptr;
};

struct DotOutcome {
  std::vector<double> results;  ///< one per (u, v) pair
  host::PerfReport report;
};

class DotEngine {
 public:
  explicit DotEngine(const DotConfig& cfg);

  /// Compute dot(u[i], v[i]) for each pair in the batch, cycle-accurately.
  /// Vectors within a pair must have equal length >= 1.
  DotOutcome run(const std::vector<std::vector<double>>& us,
                 const std::vector<std::vector<double>>& vs);

  /// Single-pair run without wrapping the operands in batch vectors (the
  /// runtime's OpKind::Dot path — the wrap copied both vectors per op,
  /// which dominated tiny-op dispatch). Bit-identical to run({u}, {v}).
  DotOutcome run_pair(const std::vector<double>& u,
                      const std::vector<double>& v);

  const DotConfig& config() const { return cfg_; }

  /// Minimum latency in cycles under the configured bandwidth if compute
  /// were free: ceil(2 * total_elements / mem_words_per_cycle) (Sec 4.4).
  u64 io_lower_bound_cycles(u64 total_elements) const;

 private:
  /// Shared cycle loop over `count` pairs addressed through pointer arrays.
  DotOutcome run_impl(const std::vector<double>* const* us,
                      const std::vector<double>* const* vs, std::size_t count);

  DotConfig cfg_;
};

}  // namespace xd::blas1
