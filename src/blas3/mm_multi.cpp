#include "blas3/mm_multi.hpp"

#include <algorithm>
#include <cmath>

#include "blas3/gemm_rows.hpp"
#include "telemetry/session.hpp"

namespace xd::blas3 {

namespace {

/// FIFO link: transfers serialize in request order at `rate` words/cycle.
struct Link {
  double rate;
  double free_at = 0.0;

  /// Move `words` once `ready`; returns completion time.
  double transfer(double ready, double words) {
    const double start = std::max(ready, free_at);
    free_at = start + words / rate;
    return free_at;
  }
};

}  // namespace

MmMultiEngine::MmMultiEngine(const MmMultiConfig& cfg) : cfg_(cfg) {
  require(cfg.l >= 1, "multi-FPGA GEMM needs l >= 1");
  require(cfg.k >= 1 && cfg.m >= 1 && cfg.m % cfg.k == 0,
          "multi-FPGA GEMM needs m divisible by k");
  require(cfg.b % cfg.m == 0 && cfg.b >= static_cast<std::size_t>(cfg.m) * cfg.l,
          "multi-FPGA GEMM needs b >= m*l and b a multiple of m");
  require(cfg.dram_words_per_cycle > 0.0 && cfg.link_words_per_cycle > 0.0,
          "bandwidths must be positive");
}

MmMultiOutcome MmMultiEngine::run(const std::vector<double>& a,
                                  const std::vector<double>& b, std::size_t n) {
  require(n >= 1 && n % cfg_.b == 0, "n must be a positive multiple of b");
  require(a.size() == n * n && b.size() == n * n, "GEMM: matrix size mismatch");

  const unsigned l = cfg_.l;
  const std::size_t m = cfg_.m;
  const std::size_t beta = cfg_.b / m;       // m-blocks per panel edge
  const std::size_t panels = n / cfg_.b;     // b-panels per matrix edge
  const double blk_words = static_cast<double>(m) * m;
  const double compute_cycles =
      static_cast<double>(m) * m * m / cfg_.k;  // per block product

  // hop[0]: DRAM -> FPGA_0; hop[f]: FPGA_{f-1} -> FPGA_f. The backward C
  // path uses the independent reverse channels of the same links.
  std::vector<Link> fwd, bwd;
  fwd.push_back(Link{cfg_.dram_words_per_cycle});
  bwd.push_back(Link{cfg_.dram_words_per_cycle});
  for (unsigned f = 1; f < l; ++f) {
    fwd.push_back(Link{cfg_.link_words_per_cycle});
    bwd.push_back(Link{cfg_.link_words_per_cycle});
  }

  MmMultiOutcome out;
  out.per_fpga.assign(l, FpgaStats{});
  std::vector<double> mm_free(l, 0.0);

  // Completion time of each C' m-block of the current C panel, per FPGA-
  // owned (g, h) pair; refreshed every (I, J) panel.
  std::vector<double> cblock_done(beta * beta, 0.0);
  double makespan = 0.0;
  double dram_words = 0.0, link_words = 0.0;

  // Arrival times of the current B block-row stripe per h, and of the
  // current A block per FPGA.
  std::vector<double> b_arrival(beta, 0.0);

  for (std::size_t pi = 0; pi < panels; ++pi) {
    for (std::size_t pj = 0; pj < panels; ++pj) {
      std::fill(cblock_done.begin(), cblock_done.end(), 0.0);
      for (std::size_t pq = 0; pq < panels; ++pq) {
        for (std::size_t z = 0; z < beta; ++z) {
          // Distribute B block-row z: block (z, h) travels to FPGA h % l.
          for (std::size_t h = 0; h < beta; ++h) {
            const unsigned target = static_cast<unsigned>(h % l);
            double t = fwd[0].transfer(0.0, blk_words);
            dram_words += blk_words;
            for (unsigned f = 1; f <= target; ++f) {
              t = fwd[f].transfer(t, blk_words);
              link_words += blk_words;
            }
            b_arrival[h] = t;
          }
          // Stream A blocks (g, z) through the whole chain; every FPGA
          // multiplies each against its owned B stripes.
          for (std::size_t g = 0; g < beta; ++g) {
            double a_arr = fwd[0].transfer(0.0, blk_words);
            dram_words += blk_words;
            for (unsigned f = 0; f < l; ++f) {
              if (f > 0) {
                a_arr = fwd[f].transfer(a_arr, blk_words);
                link_words += blk_words;
              }
              for (std::size_t h = f; h < beta; h += l) {
                const double ready = std::max(a_arr, b_arrival[h]);
                const double start = std::max(mm_free[f], ready);
                out.per_fpga[f].input_stall_cycles +=
                    static_cast<u64>(std::max(0.0, ready - mm_free[f]));
                mm_free[f] = start + compute_cycles;
                out.per_fpga[f].busy_cycles +=
                    static_cast<u64>(compute_cycles);
                ++out.per_fpga[f].blocks_computed;
                cblock_done[g * beta + h] =
                    std::max(cblock_done[g * beta + h], mm_free[f]);
              }
            }
          }
        }
      }
      // C panel finished: owned blocks stream back to DRAM through the
      // reverse channels (overlapping the next panel's compute).
      for (std::size_t g = 0; g < beta; ++g) {
        for (std::size_t h = 0; h < beta; ++h) {
          const unsigned owner = static_cast<unsigned>(h % l);
          double t = cblock_done[g * beta + h];
          for (unsigned f = owner; f >= 1; --f) {
            t = bwd[f].transfer(t, blk_words);
            link_words += blk_words;
          }
          t = bwd[0].transfer(t, blk_words);
          dram_words += blk_words;
          makespan = std::max(makespan, t);
        }
      }
    }
  }

  // Numerics: ascending-inner accumulation, the exact element-level order of
  // the PE array (bit-identical to MmArrayEngine / MmHierEngine).
  out.c = gemm_row_blocks(a, n, b, n);

  out.report.design = cat("mm-multi l=", l, " k=", cfg_.k, " m=", m, " b=", cfg_.b);
  out.report.cycles = static_cast<u64>(std::ceil(makespan));
  out.report.compute_cycles = model_cycles(n);
  out.report.flops = 2ull * n * n * n;
  u64 stalls = 0;
  for (const auto& s : out.per_fpga) stalls += s.input_stall_cycles;
  out.report.stall_cycles = stalls;
  out.report.dram_words = dram_words;
  out.report.clock_mhz = cfg_.clock_mhz;
  out.dram_words = dram_words;
  out.link_words = link_words;

  if (telemetry::Session* tel = cfg_.telemetry) {
    const u64 compute = std::min(out.report.compute_cycles, out.report.cycles);
    tel->phase("compute", compute);
    tel->phase("staging", out.report.cycles - compute);
    tel->gauge("mem.dram.gemm.words").set(dram_words);
    tel->gauge("mem.link.gemm.words").set(link_words);
    tel->counter("fpu.gemm.mac.ops").add(static_cast<u64>(n) * n * n);
    tel->gauge("fpu.gemm.pe.count")
        .set(static_cast<double>(cfg_.k) * l);
    tel->counter("blas3.gemm_multi.runs").add(1);
    tel->counter("blas3.gemm_multi.cycles").add(out.report.cycles);
    tel->counter("blas3.gemm_multi.flops").add(out.report.flops);
    tel->counter("blas3.gemm_multi.stall_cycles").add(stalls);
    auto busy = tel->histogram("blas3.gemm_multi.fpga_busy_cycles");
    for (const auto& s : out.per_fpga) {
      busy.observe(static_cast<double>(s.busy_cycles));
    }
  }
  return out;
}

}  // namespace xd::blas3
