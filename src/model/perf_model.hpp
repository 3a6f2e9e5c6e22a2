// Analytical performance model (Secs 4.4, 5.1, 5.2, 6.3).
//
// The paper evaluates its designs with closed-form peak/latency/bandwidth
// formulas and compares measured results against them; this module implements
// those formulas so benches can print both columns and tests can check the
// cycle-accurate engines against the model.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/util.hpp"
#include "machine/area.hpp"
#include "machine/device.hpp"

namespace xd::model {

// ---- Level 1 / 2: I/O-bound peaks (Sec 4.4) -------------------------------

/// Dot product moves 2n words for 2n flops: peak FLOPS equals the memory
/// bandwidth in words/s.
inline double dot_peak_flops(double mem_bytes_per_s) {
  return mem_bytes_per_s / kWordBytes;
}

/// GEMV moves ~n^2 words for 2n^2 flops: peak FLOPS is twice the bandwidth
/// in words/s.
inline double gemv_peak_flops(double mem_bytes_per_s) {
  return 2.0 * mem_bytes_per_s / kWordBytes;
}

// ---- Level 3: compute-bound peak (Sec 6.3) --------------------------------

/// Device peak: 2 x (max adder/multiplier pairs that fit) x unit clock.
/// XC2VP50 with the paper's cores: 2 * 13 * 170 MHz = 4.42 GFLOPS.
double mm_device_peak_flops(const machine::FpgaDevice& dev,
                            const machine::FpCoreSpec& cores);

// ---- Latency models --------------------------------------------------------

/// Dot: n elements through k lanes, plus pipeline and reduction tails.
u64 dot_model_cycles(std::size_t n, unsigned k, unsigned adder_stages,
                     unsigned mult_stages);

/// GEMV (either architecture): n rows x n cols through k lanes.
u64 gemv_model_cycles(std::size_t rows, std::size_t cols, unsigned k);

/// GEMM linear array: n^3 / k effective cycles (Sec 5.1).
u64 mm_model_cycles(std::size_t n, unsigned k);

/// GEMM hierarchical: n^3 / (k l) effective cycles (Sec 5.2).
u64 mm_hier_model_cycles(std::size_t n, unsigned k, unsigned l);

// ---- Bandwidth requirements -------------------------------------------------

/// GEMM array external-memory requirement: 3k/m words/cycle (Sec 5.1).
inline double mm_required_words_per_cycle(unsigned k, unsigned m) {
  return 3.0 * static_cast<double>(k) / static_cast<double>(m);
}

/// Hierarchical GEMM DRAM requirement: 3 k l / b words/cycle (Sec 5.2); the
/// FPGA-to-FPGA links carry the same stream.
inline double mm_hier_dram_words_per_cycle(unsigned k, unsigned l, std::size_t b) {
  return 3.0 * static_cast<double>(k) * static_cast<double>(l) /
         static_cast<double>(b);
}

/// Hierarchical GEMM SRAM requirement per FPGA: C' read + write every cycle
/// plus the C-panel stream (one m x m block in and out every m^2 b /(k l)
/// cycles) when l > 1 (Sec 6.3).
inline double mm_hier_sram_words_per_cycle(unsigned k, unsigned l, std::size_t b) {
  const double cpanel = l > 1 ? 2.0 * static_cast<double>(k) *
                                    static_cast<double>(l) /
                                    static_cast<double>(b)
                              : 2.0 * static_cast<double>(k) /
                                    static_cast<double>(b);
  return 2.0 + cpanel;
}

// ---- Fused-chain staging (op-graph fusion; docs/runtime.md) ----------------
// The host runtime fuses op DAGs into SRAM-resident chains: edge-forwarded
// intermediates and chain-shared operands skip their DRAM staging, and a
// non-kept intermediate skips its writeback. These formulas mirror the plan
// layer's per-node decomposition exactly — one ceil(words / wpc) per stage
// — so model and cycle sim agree to the cycle on staging (the fused-chain
// cross-validation in tests/test_graph_fusion.cpp).

/// One stage of a chain, described by its DRAM staging word budget.
struct ChainStage {
  double fresh_in_words = 0.0;   ///< external inputs staged either way
  double reused_in_words = 0.0;  ///< edge-forwarded / chain-shared inputs
  double writeback_words = 0.0;  ///< result words written back to DRAM
  bool keep = true;              ///< host needs the result in DRAM
  double wpc = 0.0;  ///< staging link words/cycle at this stage's clock
};

/// Per-op execution: every stage pays all of its words.
u64 unfused_chain_staging_cycles(const std::vector<ChainStage>& stages);

/// Fused execution: reused inputs skipped, non-kept writebacks skipped.
/// Assumes the chain fit the SRAM budget (capacity fallback = unfused).
u64 fused_chain_staging_cycles(const std::vector<ChainStage>& stages);

/// The CG-step flagship chain: a Dram GEMV (streams A, writes ap back — the
/// host updates r with it) feeding a Dram dot whose other operand p is
/// chain-resident from the GEMV's x. Stage 0 at the GEMV clock, stage 1 at
/// the dot clock.
std::vector<ChainStage> cg_step_chain(std::size_t n, double wpc_gemv,
                                      double wpc_dot);

/// The Jacobi-sweep flagship chain: `systems` Dram GEMVs sharing one R
/// matrix (staged once per sweep when fused), each writing its y back.
std::vector<ChainStage> jacobi_sweep_chain(std::size_t n, std::size_t systems,
                                           double wpc);

// ---- Related-work design points (Sec 2.2) ----------------------------------
// The paper positions its GEMM design against its own precursor [30] and the
// MAC design of Dou et al. [8]; these model structs make the storage/latency/
// bandwidth trade-off table printable (bench_mm_scaling).

struct GemmDesignPoint {
  std::string name;
  double pes = 0;             ///< processing elements / MACs
  double storage_words = 0;   ///< on-chip storage
  double latency_cycles = 0;  ///< effective latency for n x n
  double words_per_cycle = 0; ///< external bandwidth requirement
};

/// Zhuo & Prasanna IPDPS'04 [30]: n PEs, Theta(n^2) storage, Theta(n^2)
/// latency — fast but storage grows with the problem.
GemmDesignPoint gemm_zhuo04(std::size_t n);

/// Dou et al. FPGA'05 [8]: j MAC units with block size s (their S^2-word
/// local stores); latency ~ n^3/j, bandwidth ~ 3/(2s) words/cycle.
GemmDesignPoint gemm_dou05(std::size_t n, unsigned j, unsigned s);

/// This paper (Sec 5.1): k PEs, 2m^2 storage, n^3/k latency, 3k/m words/cycle.
GemmDesignPoint gemm_sc05(std::size_t n, unsigned k, unsigned m);

/// The naive multi-FPGA mapping Sec 5.2 argues AGAINST: the Sec 5.1 linear
/// array simply stretched across l FPGAs (K = k*l PEs, one shared on-chip
/// block of edge m). Latency improves to n^3/(k l) but the DRAM requirement
/// grows as 3 k l / m words/cycle because the SRAM level is unused.
GemmDesignPoint gemm_naive_multi(std::size_t n, unsigned k, unsigned l,
                                 unsigned m);

/// The hierarchical Sec 5.2 design: same n^3/(k l) latency, but the b x b
/// SRAM panels cut the DRAM requirement to 3 k l / b words/cycle.
GemmDesignPoint gemm_hier_multi(std::size_t n, unsigned k, unsigned l,
                                unsigned m, std::size_t b);

// ---- Sharded multi-FPGA execution (host/shard.hpp; docs/sharding.md) -------
// The shard scheduler splits one GEMM/GEMV into l row panels, maps them onto
// a machine::LinkChain (the FPGA chain of an installation, without its node
// memories), and charges explicit transfer legs through the chain's
// channels. These formulas replicate that timeline closed-form — one
// ceil(words / wpc) per leg, the same serialized store-and-forward order —
// so the analytic model and the channel-driven cycle sim agree exactly
// (tests/test_shard.cpp pins the equality, the same discipline the
// fused-chain staging formulas above established).

/// Rows shard i (0-based) of l owns under the deterministic row-panel
/// split: base rows/l plus one of the first rows%l remainder rows.
inline std::size_t shard_rows(std::size_t rows, unsigned l, unsigned i) {
  const std::size_t base = rows / l;
  return base + (i < rows % l ? 1 : 0);
}

/// First row of shard i under the same split.
inline std::size_t shard_row0(std::size_t rows, unsigned l, unsigned i) {
  const std::size_t base = rows / l;
  const std::size_t rem = rows % l;
  return static_cast<std::size_t>(i) * base + std::min<std::size_t>(i, rem);
}

/// The chain the shards sit on. Link rates are in words per engine clock
/// cycle (the scheduler builds its chain at the engine clock, so every leg
/// and every engine cycle share one clock domain).
struct ShardChainModel {
  unsigned nodes_per_chassis = 6;
  double link_wpc = 0.0;   ///< intra-chassis RocketIO, each direction
  double xlink_wpc = 0.0;  ///< inter-chassis links (shared direction)
};

/// One shard's slice of the timeline.
struct ShardCost {
  double scatter_words = 0.0;  ///< operand panel sent out from node 0
  u64 engine_cycles = 0;       ///< the shard's engine run
  double gather_words = 0.0;   ///< result panel sent back to node 0
};

/// Reduced cycle count of a sharded op, shard i on chain position i: each
/// shard's scatter-ready time (its panel walks hops 0..i-1, shards in
/// ascending order, legs on one channel serialized), plus its engine
/// cycles, plus the serialized gather legs back to node 0. Every leg costs
/// ceil(words / words_per_cycle), the closed form
/// machine::LinkChain::leg_ticks charges a channel with — the arithmetic
/// host::ShardScheduler performs while driving the chain. Throws SimError
/// when a leg's cycle count or end cycle does not fit in a u64.
u64 shard_timeline_cycles(const std::vector<ShardCost>& shards,
                          const ShardChainModel& chain);

/// The chain and per-shard engine parameters of the sharded-GEMM model.
struct ShardGemmModel {
  unsigned l = 1;                 ///< shards (one FPGA of the chain each)
  ShardChainModel chain;
  // Per-shard engine: the planned mm-hier row-panel design.
  unsigned k = 8;                 ///< PEs per FPGA
  unsigned engine_l = 1;          ///< FPGAs inside one shard's engine
  std::size_t b = 512;            ///< SRAM panel edge
  double engine_wpc = 0.0;        ///< min(dram, link) words/cycle of the engine
};

/// Compute cycles of a rows x n panel on the hierarchical design: the
/// rows-general form of mm_hier_model_cycles plus the k*l array skew —
/// exactly MmHierEngine's compute model (rows == n reduces to it).
u64 mm_hier_panel_model_cycles(std::size_t rows, std::size_t n, unsigned k,
                               unsigned l);

/// DRAM words of a rows x n panel multiply: each of the rows/b * (n/b)^2
/// panel multiplies reads two b x b panels, and the rows x n C panel leaves
/// once (Sec 5.2 generalized; rows == n gives 2n^3/b + n^2).
double mm_hier_panel_dram_words(std::size_t rows, std::size_t n,
                                std::size_t b);

/// Total engine cycles of the rows x n panel: max(compute, ceil(io)),
/// MmHierEngine::fill_model's throttle.
u64 mm_hier_panel_cycles(std::size_t rows, std::size_t n, unsigned k,
                         unsigned l, std::size_t b, double engine_wpc);

/// Reduced cycle count of the sharded n x n GEMM: shard_timeline_cycles
/// with each shard's A row panel plus all of B scattered, its
/// mm_hier_panel_cycles, and its C row panel gathered.
u64 shard_gemm_model_cycles(std::size_t n, const ShardGemmModel& m);

// ---- I/O complexity (Hong & Kung lower bound, Sec 5) -----------------------

/// Words moved to/from external memory by the blocked GEMM: Theta(n^3 / m)
/// with on-chip storage 2 m^2 (matches the red-blue pebble lower bound).
inline double mm_io_words(std::size_t n, unsigned m) {
  const double dn = static_cast<double>(n);
  return 2.0 * dn * dn * dn / static_cast<double>(m) + dn * dn;
}

}  // namespace xd::model
