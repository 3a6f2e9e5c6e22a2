#include "model/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace xd::model {

double mm_device_peak_flops(const machine::FpgaDevice& dev,
                            const machine::FpCoreSpec& cores) {
  const unsigned pair_slices = cores.adder_slices + cores.multiplier_slices;
  const unsigned pairs = dev.slices / pair_slices;
  return 2.0 * static_cast<double>(pairs) * cores.clock_mhz * 1e6;
}

u64 dot_model_cycles(std::size_t n, unsigned k, unsigned adder_stages,
                     unsigned mult_stages) {
  // Stream n/k groups, then drain: multiplier, adder tree (lg k levels), and
  // the reduction of the final alpha partials (~lg(alpha) passes of alpha).
  const u64 stream = ceil_div(n, k);
  const u64 tree = static_cast<u64>(k > 1 ? log2_ceil(k) : 0) * adder_stages;
  const u64 reduction_tail =
      static_cast<u64>(log2_ceil(adder_stages) + 1) * adder_stages;
  return stream + mult_stages + tree + reduction_tail;
}

u64 gemv_model_cycles(std::size_t rows, std::size_t cols, unsigned k) {
  return ceil_div(static_cast<u64>(rows) * cols, k);
}

u64 mm_model_cycles(std::size_t n, unsigned k) {
  return static_cast<u64>(n) * n * n / k;
}

u64 mm_hier_model_cycles(std::size_t n, unsigned k, unsigned l) {
  return static_cast<u64>(n) * n * n / (static_cast<u64>(k) * l);
}

GemmDesignPoint gemm_zhuo04(std::size_t n) {
  const double dn = static_cast<double>(n);
  // [30]: n PEs, Theta(n^2) storage, Theta(n^2) effective latency; the whole
  // operand set streams once (1 word/cycle per matrix).
  return GemmDesignPoint{"Zhuo04 [30] (n PEs)", dn, 2.0 * dn * dn, dn * dn, 2.0};
}

GemmDesignPoint gemm_dou05(std::size_t n, unsigned j, unsigned s) {
  const double dn = static_cast<double>(n);
  const double ds = static_cast<double>(s);
  // [8]: j pipelined MACs, S^2-word local block stores, latency ~ n^3/j,
  // bandwidth ~ 3/(2 S) words/cycle (their Eq. for block reuse).
  return GemmDesignPoint{cat("Dou05 [8] (", j, " MACs, S=", s, ")"),
                         static_cast<double>(j), 2.0 * ds * ds,
                         dn * dn * dn / static_cast<double>(j), 1.5 / ds};
}

GemmDesignPoint gemm_sc05(std::size_t n, unsigned k, unsigned m) {
  const double dn = static_cast<double>(n);
  return GemmDesignPoint{cat("this paper (k=", k, ", m=", m, ")"),
                         static_cast<double>(k),
                         2.0 * static_cast<double>(m) * m, dn * dn * dn / k,
                         mm_required_words_per_cycle(k, m)};
}

GemmDesignPoint gemm_naive_multi(std::size_t n, unsigned k, unsigned l,
                                 unsigned m) {
  const double dn = static_cast<double>(n);
  const double kl = static_cast<double>(k) * l;
  return GemmDesignPoint{cat("naive array x", l, " FPGAs (K=", k * l, ")"),
                         kl, 2.0 * static_cast<double>(m) * m,
                         dn * dn * dn / kl,
                         3.0 * kl / static_cast<double>(m)};
}

namespace {

u64 stage_cycles(double words, double wpc) {
  if (!(words > 0.0)) return 0;
  const double cycles = std::ceil(words / wpc);
  // 2^64: the first double a u64 cannot hold. `!(<)` also catches NaN.
  if (!(cycles < 0x1p64)) {
    throw SimError(cat("model: ", words, " words at ", wpc,
                       " words/cycle take more than 2^64 cycles"));
  }
  return static_cast<u64>(cycles);
}

}  // namespace

u64 unfused_chain_staging_cycles(const std::vector<ChainStage>& stages) {
  u64 total = 0;
  for (const auto& s : stages)
    total += stage_cycles(s.fresh_in_words + s.reused_in_words +
                              s.writeback_words,
                          s.wpc);
  return total;
}

u64 fused_chain_staging_cycles(const std::vector<ChainStage>& stages) {
  u64 total = 0;
  for (const auto& s : stages)
    total += stage_cycles(s.fresh_in_words +
                              (s.keep ? s.writeback_words : 0.0),
                          s.wpc);
  return total;
}

std::vector<ChainStage> cg_step_chain(std::size_t n, double wpc_gemv,
                                      double wpc_dot) {
  const double dn = static_cast<double>(n);
  std::vector<ChainStage> chain(2);
  // Stage 0: GEMV streams A (n^2 fresh words) and writes ap back — keep:
  // the host consumes ap to update the residual.
  chain[0] = ChainStage{dn * dn, 0.0, dn, true, wpc_gemv};
  // Stage 1: dot(p, ap). Both operands are reused on-chip when fused: ap
  // arrives over the forwarding bank, p is chain-resident from the GEMV's
  // x. A dot produces one scalar; no writeback is modeled (the single-op
  // dot never stages its result either).
  chain[1] = ChainStage{0.0, 2.0 * dn, 0.0, true, wpc_dot};
  return chain;
}

std::vector<ChainStage> jacobi_sweep_chain(std::size_t n, std::size_t systems,
                                           double wpc) {
  const double dn = static_cast<double>(n);
  std::vector<ChainStage> chain(systems);
  for (std::size_t s = 0; s < systems; ++s) {
    // Every system streams the shared R once per sweep when unfused; fused,
    // only the first stage stages it (the rest reuse the resident copy).
    // Each keeps its own y writeback.
    chain[s] = s == 0 ? ChainStage{dn * dn, 0.0, dn, true, wpc}
                      : ChainStage{0.0, dn * dn, dn, true, wpc};
  }
  return chain;
}

u64 mm_hier_panel_model_cycles(std::size_t rows, std::size_t n, unsigned k,
                               unsigned l) {
  // rows * n^2 / (k l) streaming cycles plus the k*l array fill/drain skew —
  // the same integer arithmetic MmHierEngine::fill_model uses; rows == n
  // reduces to mm_hier_model_cycles(n, k, l) + k*l.
  return static_cast<u64>(rows) * n * n / (static_cast<u64>(k) * l) +
         static_cast<u64>(k) * l;
}

double mm_hier_panel_dram_words(std::size_t rows, std::size_t n,
                                std::size_t b) {
  const double dr = static_cast<double>(rows);
  const double dn = static_cast<double>(n);
  return 2.0 * dr * dn * dn / static_cast<double>(b) + dr * dn;
}

u64 mm_hier_panel_cycles(std::size_t rows, std::size_t n, unsigned k,
                         unsigned l, std::size_t b, double engine_wpc) {
  const u64 compute = mm_hier_panel_model_cycles(rows, n, k, l);
  const u64 io = stage_cycles(mm_hier_panel_dram_words(rows, n, b), engine_wpc);
  return std::max(compute, io);
}

u64 shard_timeline_cycles(const std::vector<ShardCost>& shards,
                          const ShardChainModel& chain) {
  require(chain.nodes_per_chassis >= 1,
          "shard_timeline_cycles: nodes_per_chassis must be >= 1");
  // Busy-until cycle per channel, keyed per hop p (positions p -> p+1): 3p
  // forward and 3p+1 backward RocketIO, 3p+2 the inter-chassis link both
  // directions share. Each leg costs ceil(words / wpc).
  const std::size_t l = shards.size();
  std::vector<u64> busy(3 * l, 0);
  auto leg = [&](std::size_t p, bool forward, double words, u64 ready) {
    const bool cross = (p + 1) % chain.nodes_per_chassis == 0;
    u64& until = busy[3 * p + (cross ? 2 : forward ? 0 : 1)];
    const u64 start = std::max(until, ready);
    const u64 cycles =
        stage_cycles(words, cross ? chain.xlink_wpc : chain.link_wpc);
    if (cycles > std::numeric_limits<u64>::max() - start) {
      throw SimError(cat("shard_timeline_cycles: a leg of ", cycles,
                         " cycles from cycle ", start, " ends past 2^64"));
    }
    until = start + cycles;
    return until;
  };

  std::vector<u64> done(l, 0);
  for (std::size_t i = 0; i < l; ++i) {
    u64 t = 0;
    for (std::size_t p = 0; p < i; ++p)
      t = leg(p, /*forward=*/true, shards[i].scatter_words, t);
    done[i] = t + shards[i].engine_cycles;
  }
  u64 total = 0;
  for (std::size_t i = 0; i < l; ++i) {
    u64 t = done[i];
    for (std::size_t p = i; p-- > 0;)
      t = leg(p, /*forward=*/false, shards[i].gather_words, t);
    total = std::max(total, t);
  }
  return total;
}

u64 shard_gemm_model_cycles(std::size_t n, const ShardGemmModel& m) {
  require(m.l >= 1, "shard_gemm_model_cycles: l must be >= 1");
  const double dn = static_cast<double>(n);
  std::vector<ShardCost> shards;
  for (unsigned i = 0; i < m.l; ++i) {
    const std::size_t rows = shard_rows(n, m.l, i);
    const double panel = static_cast<double>(rows) * dn;
    shards.push_back({panel + dn * dn,
                      mm_hier_panel_cycles(rows, n, m.k, m.engine_l, m.b,
                                           m.engine_wpc),
                      panel});
  }
  return shard_timeline_cycles(shards, m.chain);
}

GemmDesignPoint gemm_hier_multi(std::size_t n, unsigned k, unsigned l,
                                unsigned m, std::size_t b) {
  const double dn = static_cast<double>(n);
  const double kl = static_cast<double>(k) * l;
  return GemmDesignPoint{
      cat("hierarchical x", l, " FPGAs (b=", b, ")"), kl,
      2.0 * static_cast<double>(m) * m +
          2.0 * static_cast<double>(b) * b / l,  // on-chip + SRAM panel share
      dn * dn * dn / kl, mm_hier_dram_words_per_cycle(k, l, b)};
}

}  // namespace xd::model
