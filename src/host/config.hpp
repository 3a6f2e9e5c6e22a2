// Machine/design configuration for the host layer.
//
// One ContextConfig describes the machine and the configured designs; every
// op runs against it through host::Runtime:
//
//   host::ContextConfig cfg;                 // one XD1 node, paper designs
//   cfg.mm_b = 64;                           // tune a design knob
//   host::Runtime rt(cfg);
//   host::Outcome out = rt.run(host::OpDesc::gemm(a, b, n));
//
// op.hpp needs Placement/GemvArch for OpDesc, plan.hpp derives engine
// configurations from ContextConfig, and runtime.hpp executes against it.
#pragma once

#include <cstddef>

#include "fp/fpu.hpp"
#include "machine/device.hpp"

namespace xd::telemetry {
class Session;
}

namespace xd::host {

enum class Placement {
  Sram,  ///< operands already in the FPGA-attached SRAM banks
  Dram,  ///< operands start in processor DRAM (staging is simulated)
};

enum class GemvArch {
  Tree,    ///< row-major, adder tree + reduction circuit (Sec 4.2 arch 1)
  Column,  ///< column-major, interleaved accumulation (Sec 4.2 arch 2)
};

/// How the plan layer picks the engine design for an op (see host/tuner.hpp).
enum class TunePolicy {
  Fixed,  ///< the configured design, exactly as before (default)
  Model,  ///< enumerate legal designs, rank with the Sec 4/5 analytic models
  Probe,  ///< Model, then validate the top-N candidates with short sim runs
};

/// Machine/design parameters. Defaults describe one Cray XD1 node exactly as
/// the paper configures it (Tables 3 and 4).
struct ContextConfig {
  machine::FpgaDevice device = machine::xc2vp50();

  // Level 1 (dot): k = 2 multipliers at 170 MHz, 5.5 GB/s streaming.
  unsigned dot_k = 2;
  double dot_clock_mhz = 170.0;
  double dot_mem_bytes_per_s = 5.5 * kGB;

  // Level 2 (GEMV): k = 4 at 164 MHz, one word per SRAM bank per cycle.
  unsigned gemv_k = 4;
  double gemv_clock_mhz = 164.0;
  double gemv_sram_bytes_per_s = 5.9 * kGB;
  double gemv_dram_bytes_per_s = 1.3 * kGB;  ///< measured staging bandwidth

  // Level 3 (GEMM): k = 8 PEs, m = 8, b = 512, 130 MHz.
  unsigned mm_k = 8;
  unsigned mm_m = 8;
  std::size_t mm_b = 512;
  unsigned mm_l = 1;  ///< FPGAs (hierarchical design)
  double mm_clock_mhz = 130.0;
  double mm_dram_bytes_per_s = 3.2 * kGB;
  double mm_link_bytes_per_s = 2.0 * kGB;

  unsigned adder_stages = fp::kAdderStages;
  unsigned multiplier_stages = fp::kMultiplierStages;
  /// GEMM PE accumulation-adder depth (see blas3::MmArrayConfig): must
  /// satisfy m^2/k >= depth; the paper's k = m = 8 design implies <= 8.
  unsigned mm_adder_stages = 8;

  /// Optional telemetry sink, forwarded to every engine the runtime builds.
  /// Engines publish component metrics (mem.* / fpu.* / reduce.* / blas*.*)
  /// and record phase spans; for Placement::Dram the runtime records the
  /// "staging" span ahead of the engine's "compute" so the two tile the
  /// reported total. Null (the default) disables all recording.
  ///
  /// Thread-safety: a session shared across threads is synchronized through
  /// Session::lock(). Synchronous calls (Runtime::run) record
  /// directly under the lock on span lane 0; asynchronously submitted jobs
  /// record into thread-local shards merged in at completion on per-worker
  /// lanes, and every op lands a TraceContext in the session's flight
  /// recorder. Recording never changes outcomes (values, cycles, plans).
  /// See docs/runtime.md and docs/observability.md.
  telemetry::Session* telemetry = nullptr;

  /// Plans derived from this configuration are memoized per (op, shape,
  /// placement, arch) in a bounded LRU cache of this many entries.
  std::size_t plan_cache_capacity = 64;

  // ---- design autotuner (host/tuner.hpp) -----------------------------------
  /// Fixed keeps the configured design; Model ranks the legal candidates with
  /// the analytic area/perf models; Probe additionally reruns the best few
  /// through short simulator probes before committing.
  TunePolicy tune = TunePolicy::Fixed;
  /// SRAM banks the streaming designs can draw from (XD1: four QDR II banks,
  /// one word per bank per cycle). Bounds the tree GEMV at k banks and the
  /// column GEMV at k+1.
  unsigned sram_banks = 4;
  /// Total FPGA-attached SRAM in words (XD1: 4 x 4 MB = 2 Mi words). The
  /// tuner prunes the resident-operand GEMM array when 3 n^2 exceeds it and
  /// caps hierarchical panel edges at 2 b^2 <= capacity.
  std::size_t sram_capacity_words = 2ull * 1024 * 1024;
  /// How many top-ranked candidates TunePolicy::Probe validates in simulation.
  unsigned tune_probe_top = 3;
  /// Candidates whose modeled latency is within this fraction of the best are
  /// treated as ties and broken by area (then by cycle-accuracy preference) —
  /// the paper's own argument for k = 2 dot over marginally faster k = 4.
  double tune_tie_fraction = 0.02;
};

/// Words per cycle across a link of `bytes_per_s` at `clock_mhz`.
inline double words_per_cycle(double bytes_per_s, double clock_mhz) {
  return bytes_per_s / (kWordBytes * clock_mhz * 1e6);
}

}  // namespace xd::host
