// Level 2 BLAS, architecture 1 (Sec 4.2): row-major tree-based GEMV.
//
// Matrix A streams in row-major order, k elements per cycle. Vector x lives
// in per-multiplier local storage (lane p holds x[p], x[k+p], ...), so the
// only streaming traffic is A itself: k words/cycle. Each row is one
// reduction set of ceil(n/k) adder-tree outputs; the reduction circuit
// accumulates rows into y. Hardware-wise this is the design the paper
// implements on XD1 (k = 4, one word from each of the four SRAM banks per
// cycle, Table 4).
#pragma once

#include <vector>

#include "fp/fpu.hpp"
#include "host/report.hpp"
#include "reduce/reduction_circuit.hpp"

namespace xd::telemetry {
class Session;
}
namespace xd::sim {
class ScheduleSlot;
}

namespace xd::blas2 {

struct MxvTreeConfig {
  unsigned k = 4;  ///< multipliers == words of A consumed per cycle
  unsigned adder_stages = fp::kAdderStages;
  unsigned multiplier_stages = fp::kMultiplierStages;
  /// Streaming bandwidth for A in words/cycle (XD1: 4 banks -> 4.0).
  double mem_words_per_cycle = 4.0;
  double clock_mhz = 164.0;  ///< Table 4 post-P&R clock on XD1
  /// Optional telemetry sink (mem.gemv.* / fpu.gemv.* / reduce.gemv.* /
  /// blas2.gemv.* metrics plus a "compute" phase span).
  telemetry::Session* telemetry = nullptr;
  /// Optional schedule slot (sim/schedule.hpp): the first run records the
  /// reduction schedule into it, later runs of the same shape replay it
  /// instead of simulating. Null always simulates.
  sim::ScheduleSlot* schedule = nullptr;
};

struct MxvOutcome {
  std::vector<double> y;
  host::PerfReport report;
};

class MxvTreeEngine {
 public:
  explicit MxvTreeEngine(const MxvTreeConfig& cfg);

  /// y = A x for row-major `a` of shape rows x cols; x.size() == cols.
  /// Cycle-accurate; x is preloaded into on-chip storage (not streamed).
  MxvOutcome run(const std::vector<double>& a, std::size_t rows, std::size_t cols,
                 const std::vector<double>& x);

  const MxvTreeConfig& config() const { return cfg_; }

  /// I/O lower bound (Sec 4.4): rows*cols words at the configured rate.
  u64 io_lower_bound_cycles(std::size_t rows, std::size_t cols) const;

 private:
  MxvTreeConfig cfg_;
};

}  // namespace xd::blas2
