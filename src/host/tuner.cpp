#include "host/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/random.hpp"
#include "host/runtime.hpp"
#include "model/perf_model.hpp"

namespace xd::host {

namespace {

/// Cycle-accuracy preference for tie-breaks after latency and area: the
/// simulated engines (array, multi, the level-1/2 designs) rank ahead of the
/// analytic hierarchical model when the formulas cannot separate them.
unsigned family_preference(TuneFamily f) {
  switch (f) {
    case TuneFamily::MmHier: return 2;
    case TuneFamily::MmMulti: return 1;
    default: return 0;
  }
}

/// Pipeline/reduction drain after the streaming phase of the tree designs.
u64 tree_tail_cycles(unsigned k, unsigned adder_stages, unsigned mult_stages) {
  const u64 tree = static_cast<u64>(k > 1 ? log2_ceil(k) : 0) * adder_stages;
  const u64 reduction =
      static_cast<u64>(log2_ceil(adder_stages) + 1) * adder_stages;
  return mult_stages + tree + reduction;
}

void finish_candidate(TuneCandidate& c, const ContextConfig& cfg, u64 cycles) {
  c.model_cycles = cycles;
  c.model_seconds = static_cast<double>(cycles) / (c.area.clock_mhz * 1e6);
  if (c.area.slices > cfg.device.slices) {
    c.feasible = false;
    if (c.why_not.empty()) {
      c.why_not = cat(c.area.slices, " slices > device's ", cfg.device.slices);
    }
  }
  if (c.feasible && c.bram_words > cfg.device.bram_words()) {
    c.feasible = false;
    c.why_not = cat(c.bram_words, " BRAM words > device's ",
                    cfg.device.bram_words());
  }
}

/// Bandwidth throttle: scale the compute-bound latency when the design needs
/// more external words/cycle than the machine supplies (Sec 5's I/O-vs-
/// compute crossover).
u64 throttled(double cycles, double required, double available) {
  const double scale =
      available > 0.0 ? std::max(1.0, required / available) : 1.0;
  return static_cast<u64>(std::ceil(cycles * scale));
}

// ---- candidate enumeration per op family -----------------------------------

void add_dot(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
             const machine::AreaModel& area, std::size_t n) {
  for (unsigned k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    TuneCandidate c;
    c.family = TuneFamily::Dot;
    c.k = k;
    c.area = area.dot_design(k);
    c.bram_words = reduction_buffer_words(cfg);
    const double wpc = words_per_cycle(cfg.dot_mem_bytes_per_s,
                                       c.area.clock_mhz);
    c.required_words_per_cycle = 2.0 * k;  // both vectors stream, no reuse
    c.available_words_per_cycle = wpc;
    c.feasible = true;
    // Streaming is the max of the compute-bound n/k and the I/O-bound 2n/wpc
    // (dot is I/O bound the moment 2k exceeds the link rate, Table 3).
    const u64 stream = std::max(ceil_div(n, k),
                                static_cast<u64>(std::ceil(2.0 * n / wpc)));
    finish_candidate(
        c, cfg,
        stream + tree_tail_cycles(k, cfg.adder_stages, cfg.multiplier_stages));
    out.push_back(std::move(c));
  }
}

void add_gemv_tree(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
                   const machine::AreaModel& area, std::size_t rows,
                   std::size_t cols, std::size_t resident_x_words) {
  for (unsigned k : {1u, 2u, 4u, 8u, 16u}) {
    TuneCandidate c;
    c.family = TuneFamily::GemvTree;
    c.k = k;
    c.area = area.mxv_design_xd1(k);
    // x sits next to the reduction buffers (Sec 4.2 arch 1). Callers with a
    // blocked-x fallback (GemvAuto) charge only the resident panel, not the
    // whole vector.
    c.bram_words = reduction_buffer_words(cfg) + resident_x_words;
    c.required_words_per_cycle = k;  // one word of A per lane per cycle
    c.available_words_per_cycle = std::min<double>(k, cfg.sram_banks);
    c.feasible = k <= cfg.sram_banks;
    if (!c.feasible) {
      c.why_not = cat("needs ", k, " SRAM banks, machine has ",
                      cfg.sram_banks);
    }
    const u64 stream = static_cast<u64>(rows) * ceil_div(cols, k);
    finish_candidate(
        c, cfg,
        stream + tree_tail_cycles(k, cfg.adder_stages, cfg.multiplier_stages));
    out.push_back(std::move(c));
  }
}

void add_gemv_col(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
                  const machine::AreaModel& area, std::size_t rows,
                  std::size_t cols) {
  for (unsigned k : {1u, 2u, 3u, 4u, 6u, 8u}) {
    TuneCandidate c;
    c.family = TuneFamily::GemvCol;
    c.k = k;
    const machine::DesignArea standalone = area.mxv_col_design(k);
    c.area = machine::DesignArea{
        standalone.slices + area.xd1_interface_slices(), 164.0};
    // Interleaved accumulation needs y resident per lane and the staging
    // FIFOs, no reduction circuit buffers.
    c.bram_words = rows + kStagingFifoWords;
    c.required_words_per_cycle = k + 1.0;  // k of A plus the broadcast x
    c.available_words_per_cycle = cfg.sram_banks;
    c.feasible = true;
    if (k + 1 > cfg.sram_banks) {
      c.feasible = false;
      c.why_not = cat("needs ", k + 1, " SRAM banks, machine has ",
                      cfg.sram_banks);
    } else if (ceil_div(rows, k) < cfg.adder_stages) {
      c.feasible = false;
      c.why_not = cat("hazard: ceil(rows/k) = ", ceil_div(rows, k), " < ",
                      cfg.adder_stages, " adder stages");
    }
    const u64 stream = static_cast<u64>(cols) * ceil_div(rows, k);
    finish_candidate(c, cfg,
                     stream + cfg.multiplier_stages + cfg.adder_stages);
    out.push_back(std::move(c));
  }
}

void add_spmxv(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
               const machine::AreaModel& area, std::size_t rows,
               std::size_t cols) {
  for (unsigned k : {1u, 2u, 4u, 8u}) {
    TuneCandidate c;
    c.family = TuneFamily::Spmxv;
    c.k = k;
    c.area = area.mxv_design_xd1(k);
    c.bram_words = reduction_buffer_words(cfg) + cols;
    // Value + index pairs: k/2 CRS elements per cycle occupy k banks.
    c.required_words_per_cycle = k;
    c.available_words_per_cycle = cfg.sram_banks;
    c.feasible = k <= cfg.sram_banks;
    if (!c.feasible) {
      c.why_not = cat("needs ", k, " SRAM banks, machine has ",
                      cfg.sram_banks);
    }
    // nnz is unknown at plan time; the dense element count is a uniform
    // scale factor across k, so the ranking is density-independent.
    const u64 elements = static_cast<u64>(rows) * std::max<std::size_t>(cols, 1);
    const u64 stream = ceil_div(2 * elements, k);
    finish_candidate(
        c, cfg,
        stream + tree_tail_cycles(k, cfg.adder_stages, cfg.multiplier_stages));
    out.push_back(std::move(c));
  }
}

/// Largest SRAM panel edge for (m, l): a multiple of m covering every FPGA
/// (b >= m*l), tiling n, with the two b x b panels fitting the SRAM level.
std::size_t tuned_panel_edge(const ContextConfig& cfg, std::size_t n,
                             unsigned m, unsigned l) {
  const std::size_t min_b = static_cast<std::size_t>(m) * l;
  std::size_t cap = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(cfg.sram_capacity_words) / 2.0));
  cap = std::min(cap, n);
  for (std::size_t b = cap - cap % m; b >= min_b && b > 0; b -= m) {
    if (n % b == 0) return b;
  }
  return 0;
}

void add_gemm(std::vector<TuneCandidate>& out, const ContextConfig& cfg,
              const machine::AreaModel& area, std::size_t n, bool array_family,
              bool hier_family, bool multi_family, unsigned multi_min_l = 2) {
  const unsigned max_pes = area.max_mm_pes(cfg.device, true);
  const unsigned max_l = std::max(1u, cfg.mm_l);
  for (unsigned l = 1; l <= max_l; ++l) {
    for (unsigned k : {1u, 2u, 4u, 8u, 10u}) {
      // Block edges: the configured one plus power-of-two multiples of k,
      // deduplicated; m must be a multiple of k (PE stripe ownership).
      std::vector<unsigned> ms = {cfg.mm_m, k, 2 * k, 4 * k, 8 * k};
      std::sort(ms.begin(), ms.end());
      ms.erase(std::unique(ms.begin(), ms.end()), ms.end());
      for (unsigned m : ms) {
        if (m < k || m % k != 0) continue;
        struct FamilyPlan {
          TuneFamily family;
          std::size_t b;
        };
        std::vector<FamilyPlan> fams;
        if (array_family && l == 1) fams.push_back({TuneFamily::MmArray, 0});
        if (hier_family) {
          fams.push_back({TuneFamily::MmHier, tuned_panel_edge(cfg, n, m, l)});
        }
        if (multi_family && l >= multi_min_l) {
          fams.push_back({TuneFamily::MmMulti, tuned_panel_edge(cfg, n, m, l)});
        }
        for (const auto& fam : fams) {
          TuneCandidate c;
          c.family = fam.family;
          c.k = k;
          c.m = m;
          c.l = l;
          c.b = fam.b;
          c.area = area.mm_design_xd1(k);
          c.bram_words = 2ull * m * m + 2ull * m;
          c.feasible = true;
          if (k > max_pes) {
            c.feasible = false;
            c.why_not = cat("place & route fails beyond ", max_pes,
                            " PEs with the XD1 interface");
          } else if (static_cast<u64>(m) * m / k < cfg.mm_adder_stages) {
            c.feasible = false;
            c.why_not = cat("accumulation hazard: m^2/k = ",
                            static_cast<u64>(m) * m / k, " < ",
                            cfg.mm_adder_stages, " adder stages");
          } else if (n == 0) {
            c.feasible = false;
            c.why_not = "empty problem";
          }
          double latency = 0.0;
          if (c.family == TuneFamily::MmArray) {
            const auto point = model::gemm_sc05(n, k, m);
            latency = point.latency_cycles;
            c.required_words_per_cycle = point.words_per_cycle;
            c.available_words_per_cycle = cfg.sram_banks;
            if (c.feasible && n % m != 0) {
              c.feasible = false;
              c.why_not = cat("n = ", n, " is not a multiple of m = ", m);
            }
            // Sec 5.1 keeps all three matrices resident in SRAM; past that
            // the hierarchical design is the only option (the n = 2048
            // array-vs-hier decision).
            if (c.feasible && 3.0 * static_cast<double>(n) * n >
                                  static_cast<double>(cfg.sram_capacity_words)) {
              c.feasible = false;
              c.why_not = cat("3n^2 = ", 3 * n * n, " words exceed the ",
                              cfg.sram_capacity_words, "-word SRAM");
            }
          } else {
            if (c.feasible && c.b == 0) {
              c.feasible = false;
              c.why_not = cat("no SRAM panel edge tiles n = ", n,
                              " with m = ", m, ", l = ", l);
            }
            const auto point = model::gemm_hier_multi(
                n, k, l, m, c.b ? c.b : static_cast<std::size_t>(m) * l);
            latency = point.latency_cycles;
            c.required_words_per_cycle = point.words_per_cycle;
            c.available_words_per_cycle =
                words_per_cycle(cfg.mm_dram_bytes_per_s, c.area.clock_mhz);
          }
          finish_candidate(c, cfg,
                           throttled(latency, c.required_words_per_cycle,
                                     c.available_words_per_cycle));
          out.push_back(std::move(c));
        }
      }
    }
  }
}

// ---- probes ----------------------------------------------------------------

/// Deterministic operand values for probe runs; values never affect timing,
/// the fixed seed just keeps the whole tuner a pure function.
constexpr u64 kProbeSeed = 2005;

/// Simulated cycles of one candidate on the probe shape: a plan with no
/// schedule slot, run through the runtime's engine dispatch. GEMM designs
/// run with the reduced panel edge `probe_b`.
u64 run_probe(const ContextConfig& cfg, TuneCandidate c, std::size_t rows,
              std::size_t cols, std::size_t n, std::size_t probe_b) {
  if (c.family == TuneFamily::MmHier || c.family == TuneFamily::MmMulti) {
    c.b = probe_b;
  }
  Plan plan;
  plan.engine = design_config(cfg, c);
  Rng rng(kProbeSeed);
  std::vector<double> a, b, x;
  blas2::CrsMatrix sparse;
  OpDesc desc;
  switch (c.family) {
    case TuneFamily::Dot:
      a = rng.vector(cols);
      b = rng.vector(cols);
      desc = OpDesc::dot(a, b);
      break;
    case TuneFamily::GemvTree:
    case TuneFamily::GemvCol:
      a = rng.matrix(rows, cols);
      x = rng.vector(cols);
      desc = OpDesc::gemv(a, rows, cols, x);
      break;
    case TuneFamily::Spmxv:
      sparse = blas2::make_uniform_sparse(rows, cols,
                                          std::min<std::size_t>(cols, 8), 7);
      x = rng.vector(cols);
      desc = OpDesc::spmxv(sparse, x);
      break;
    case TuneFamily::MmArray:
    case TuneFamily::MmHier:
    case TuneFamily::MmMulti:
      a = rng.matrix(n, n);
      b = rng.matrix(n, n);
      desc = OpDesc::gemm(a, b, n);
      break;
  }
  return Runtime::run_engine(plan, desc, nullptr).report.cycles;
}

/// Probe the top-N feasible candidates on one shrunken common shape and
/// return the winner among them. Every probed candidate sees the same
/// shape, so the comparison is fair; the shape preserves each candidate's
/// feasibility constraints (hazard rows, block divisibility).
void probe_top(TuneResult& tr, const ContextConfig& cfg, const PlanKey& key) {
  std::vector<std::size_t> top;
  for (std::size_t i = 0; i < tr.ranked.size() && top.size() < cfg.tune_probe_top;
       ++i) {
    if (tr.ranked[i].feasible) top.push_back(i);
  }
  if (top.size() < 2) return;  // nothing to separate

  // Common probe shape. GEMM candidates use a reduced panel edge b_p = m*l
  // and an edge n_p divisible by every probed candidate's m and b_p.
  std::size_t rows = std::min<std::size_t>(std::max<std::size_t>(key.rows, 1), 256);
  std::size_t cols = std::min<std::size_t>(std::max<std::size_t>(key.cols, 1), 256);
  if (key.kind == OpKind::Dot || key.kind == OpKind::DotBatch) {
    cols = std::min<std::size_t>(std::max<std::size_t>(key.cols, 1), 2048);
  }
  std::size_t lcm = 1;
  for (std::size_t i : top) {
    const TuneCandidate& c = tr.ranked[i];
    if (c.m == 0) continue;
    const std::size_t unit = static_cast<std::size_t>(c.m) *
                             (c.family == TuneFamily::MmArray ? 1 : c.l);
    lcm = std::lcm(lcm, unit);
  }
  if (lcm > 128) return;  // probe would not be short; keep the model ranking
  const std::size_t n = std::max<std::size_t>(lcm, lcm * (64 / lcm));

  for (std::size_t i : top) {
    TuneCandidate& c = tr.ranked[i];
    // A probe must not shrink below the column design's hazard bound.
    std::size_t probe_rows = rows;
    if (c.family == TuneFamily::GemvCol) {
      const std::size_t need =
          static_cast<std::size_t>(cfg.adder_stages - 1) * c.k + 1;
      probe_rows = std::min(std::max(rows, need), std::max<std::size_t>(key.rows, 1));
    }
    const std::size_t probe_b = static_cast<std::size_t>(c.m) * c.l;
    c.probe_cycles = run_probe(cfg, c, probe_rows, cols, n, probe_b);
    c.probe_seconds =
        static_cast<double>(c.probe_cycles) / (c.area.clock_mhz * 1e6);
    tr.probe_cycles += c.probe_cycles;
    ++tr.probed;
  }

  // Re-pick the winner from the probed subset with the same tie rules.
  double best = tr.ranked[top.front()].probe_seconds;
  for (std::size_t i : top) best = std::min(best, tr.ranked[i].probe_seconds);
  std::size_t win = top.front();
  for (std::size_t i : top) {
    const TuneCandidate& c = tr.ranked[i];
    if (c.probe_seconds > best * (1.0 + cfg.tune_tie_fraction)) continue;
    const TuneCandidate& w = tr.ranked[win];
    const bool w_in_band =
        w.probe_seconds <= best * (1.0 + cfg.tune_tie_fraction);
    if (!w_in_band || c.area.slices < w.area.slices ||
        (c.area.slices == w.area.slices &&
         family_preference(c.family) < family_preference(w.family))) {
      win = i;
    }
  }
  tr.ranked[static_cast<std::size_t>(tr.winner_index)].chosen = false;
  tr.winner_index = static_cast<int>(win);
  tr.ranked[win].chosen = true;
}

// ---- the one emitter --------------------------------------------------------
// ContextConfig clocks and bandwidths with the design's k/m/l/b, for the
// configured design, the tuner's winner and every probe alike.

/// The fields the reduction-circuit designs (dot, both GEMVs, SpMXV) share.
template <typename Engine>
Engine streaming_design(const ContextConfig& cfg, unsigned k,
                        double clock_mhz) {
  Engine e;
  e.k = k;
  e.adder_stages = cfg.adder_stages;
  e.multiplier_stages = cfg.multiplier_stages;
  e.clock_mhz = clock_mhz;
  return e;
}

/// The fields the SRAM-panel GEMM designs (hierarchical, multi-FPGA) share.
template <typename Engine>
Engine panel_design(const ContextConfig& cfg, const TuneCandidate& c) {
  Engine e;
  e.l = c.l;
  e.k = c.k;
  e.m = c.m;
  e.b = c.b;
  e.clock_mhz = cfg.mm_clock_mhz;
  e.dram_words_per_cycle =
      words_per_cycle(cfg.mm_dram_bytes_per_s, cfg.mm_clock_mhz);
  e.link_words_per_cycle =
      words_per_cycle(cfg.mm_link_bytes_per_s, cfg.mm_clock_mhz);
  return e;
}

}  // namespace

EngineConfig design_config(const ContextConfig& cfg, const TuneCandidate& c) {
  switch (c.family) {
    case TuneFamily::Dot: {
      auto e = streaming_design<blas1::DotConfig>(cfg, c.k, cfg.dot_clock_mhz);
      e.mem_words_per_cycle =
          words_per_cycle(cfg.dot_mem_bytes_per_s, cfg.dot_clock_mhz);
      return e;
    }
    case TuneFamily::GemvTree: {
      auto e =
          streaming_design<blas2::MxvTreeConfig>(cfg, c.k, cfg.gemv_clock_mhz);
      e.mem_words_per_cycle = static_cast<double>(c.k);  // 1 word/bank
      return e;
    }
    case TuneFamily::GemvCol: {
      auto e =
          streaming_design<blas2::MxvColConfig>(cfg, c.k, cfg.gemv_clock_mhz);
      e.mem_words_per_cycle = static_cast<double>(c.k) + 1.0;  // + broadcast x
      return e;
    }
    case TuneFamily::Spmxv: {
      auto e =
          streaming_design<blas2::SpmxvConfig>(cfg, c.k, cfg.gemv_clock_mhz);
      // Value + index pairs: two SRAM banks feed one CRS element per cycle
      // pair.
      e.mem_elements_per_cycle = static_cast<double>(c.k) / 2.0;
      return e;
    }
    case TuneFamily::MmArray: {
      blas3::MmArrayConfig e;
      e.k = c.k;
      e.m = c.m;
      e.adder_stages = cfg.mm_adder_stages;
      e.multiplier_stages = cfg.multiplier_stages;
      e.mem_words_per_cycle = 4.0;  // four SRAM banks feed the array
      e.clock_mhz = cfg.mm_clock_mhz;
      return e;
    }
    case TuneFamily::MmHier: {
      auto e = panel_design<blas3::MmHierConfig>(cfg, c);
      e.adder_stages = cfg.mm_adder_stages;
      e.multiplier_stages = cfg.multiplier_stages;
      return e;
    }
    case TuneFamily::MmMulti:
      return panel_design<blas3::MmMultiConfig>(cfg, c);
  }
  return blas1::DotConfig{};
}

const char* tune_family_name(TuneFamily f) {
  switch (f) {
    case TuneFamily::Dot: return "dot";
    case TuneFamily::GemvTree: return "gemv-tree";
    case TuneFamily::GemvCol: return "gemv-col";
    case TuneFamily::Spmxv: return "spmxv";
    case TuneFamily::MmArray: return "mm-array";
    case TuneFamily::MmHier: return "mm-hier";
    case TuneFamily::MmMulti: return "mm-multi";
  }
  return "unknown";
}

const char* tune_policy_name(TunePolicy p) {
  switch (p) {
    case TunePolicy::Fixed: return "fixed";
    case TunePolicy::Model: return "model";
    case TunePolicy::Probe: return "probe";
  }
  return "unknown";
}

bool tune_policy_from_name(std::string_view name, TunePolicy& out) {
  for (const TunePolicy p :
       {TunePolicy::Fixed, TunePolicy::Model, TunePolicy::Probe}) {
    if (name == tune_policy_name(p)) {
      out = p;
      return true;
    }
  }
  return false;
}

std::string TuneCandidate::name() const {
  std::string s = tune_family_name(family);
  if (l > 1 || family == TuneFamily::MmHier || family == TuneFamily::MmMulti) {
    s += cat(" l=", l);
  }
  s += cat(" k=", k);
  if (m > 0) s += cat(" m=", m);
  if (b > 0) s += cat(" b=", b);
  return s;
}

TuneResult tune_op(const ContextConfig& cfg, const PlanKey& key) {
  const machine::AreaModel area;
  TuneResult tr;
  tr.kind = key.kind;

  switch (key.kind) {
    case OpKind::Dot:
      add_dot(tr.ranked, cfg, area, key.cols);
      break;
    case OpKind::DotBatch:
      // Per-pair lengths are unknown at plan time; a nominal streaming
      // length ranks the candidates (the order is length-independent once
      // streaming dominates the drain tails).
      add_dot(tr.ranked, cfg, area, 4096);
      break;
    case OpKind::Gemv:
      // Both Sec 4.2 architectures compete; the descriptor's arch stays the
      // fixed-policy choice.
      add_gemv_tree(tr.ranked, cfg, area, key.rows, key.cols, key.cols);
      add_gemv_col(tr.ranked, cfg, area, key.rows, key.cols);
      break;
    case OpKind::GemvAuto:
      // The blocked-x fallback requires the tree design's reduction circuit.
      // When x exceeds the on-chip capacity the plan blocks it into resident
      // panels, so only the panel is charged to BRAM — a full-cols charge
      // would prune every design for exactly the shapes the fallback exists
      // to serve.
      add_gemv_tree(tr.ranked, cfg, area, key.rows, key.cols,
                    std::min(key.cols, gemv_onchip_x_capacity(cfg)));
      break;
    case OpKind::Spmxv:
      add_spmxv(tr.ranked, cfg, area, key.rows, key.cols);
      break;
    case OpKind::Gemm:
      // Row-panel keys (rows != 0, the shard scheduler's sub-ops) tune
      // within the hierarchical family only: the cycle-accurate array and
      // multi-FPGA engines are square-only.
      add_gemm(tr.ranked, cfg, area, key.n, key.rows == 0, true,
               key.rows == 0);
      break;
    case OpKind::GemmArray:
      // An explicit engine request: tune within the family only.
      add_gemm(tr.ranked, cfg, area, key.n, true, false, false);
      break;
    case OpKind::GemmMulti:
      // An explicit multi-FPGA request works at any l, including l = 1
      // (the configured design may be that too).
      add_gemm(tr.ranked, cfg, area, key.n, false, false, true, 1);
      break;
  }

  tr.considered = tr.ranked.size();
  // Feasible candidates first, fastest first; area then cycle-accuracy
  // preference as deterministic secondary keys. Infeasible candidates sink
  // to the bottom in enumeration order (stable sort).
  std::stable_sort(tr.ranked.begin(), tr.ranked.end(),
                   [](const TuneCandidate& a, const TuneCandidate& b) {
                     if (a.feasible != b.feasible) return a.feasible;
                     if (!a.feasible) return false;
                     if (a.model_seconds != b.model_seconds) {
                       return a.model_seconds < b.model_seconds;
                     }
                     if (a.area.slices != b.area.slices) {
                       return a.area.slices < b.area.slices;
                     }
                     return family_preference(a.family) <
                            family_preference(b.family);
                   });
  for (const TuneCandidate& c : tr.ranked) {
    if (c.feasible) {
      ++tr.feasible;
    } else {
      ++tr.pruned;
    }
  }
  if (tr.feasible == 0) return tr;

  // Winner: fastest by the model, with near-ties (the paper's k = 2 dot vs
  // k = 4 case) resolved toward fewer slices, then cycle accuracy.
  const double best = tr.ranked.front().model_seconds;
  std::size_t win = 0;
  for (std::size_t i = 1; i < tr.feasible; ++i) {
    const TuneCandidate& c = tr.ranked[i];
    if (c.model_seconds > best * (1.0 + cfg.tune_tie_fraction)) break;
    const TuneCandidate& w = tr.ranked[win];
    if (c.area.slices < w.area.slices ||
        (c.area.slices == w.area.slices &&
         family_preference(c.family) < family_preference(w.family))) {
      win = i;
    }
  }
  tr.winner_index = static_cast<int>(win);
  tr.ranked[win].chosen = true;

  if (key.tune == TunePolicy::Probe) probe_top(tr, cfg, key);
  return tr;
}

std::string engine_signature(const EngineConfig& engine) {
  struct Visitor {
    std::string operator()(const blas1::DotConfig& c) const {
      return cat("dot k=", c.k);
    }
    std::string operator()(const blas2::MxvTreeConfig& c) const {
      return cat("gemv-tree k=", c.k);
    }
    std::string operator()(const blas2::MxvColConfig& c) const {
      return cat("gemv-col k=", c.k);
    }
    std::string operator()(const blas2::SpmxvConfig& c) const {
      return cat("spmxv k=", c.k);
    }
    std::string operator()(const blas3::MmArrayConfig& c) const {
      return cat("mm-array k=", c.k, " m=", c.m);
    }
    std::string operator()(const blas3::MmHierConfig& c) const {
      return cat("mm-hier l=", c.l, " k=", c.k, " m=", c.m, " b=", c.b);
    }
    std::string operator()(const blas3::MmMultiConfig& c) const {
      return cat("mm-multi l=", c.l, " k=", c.k, " m=", c.m, " b=", c.b);
    }
  };
  return std::visit(Visitor{}, engine);
}

}  // namespace xd::host
