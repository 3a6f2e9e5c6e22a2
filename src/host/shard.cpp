#include "host/shard.hpp"

#include <algorithm>
#include <utility>

namespace xd::host {

struct ShardScheduler::EngineParams {
  double clock_mhz = 0.0;
  unsigned k = 1;
  // GEMM (hierarchical engine) only:
  unsigned engine_l = 1;
  std::size_t b = 512;
  double engine_wpc = 0.0;
};

ShardScheduler::ShardScheduler(Runtime& rt, machine::SystemConfig sys)
    : rt_(rt), sys_(std::move(sys)) {
  // Counts, link rates and the node clock: a zero rate would make every
  // leg's ceil(words / rate) infinite.
  machine::LinkChain::validate(sys_);
}

ShardScheduler::EngineParams ShardScheduler::resolve_engine(
    const OpDesc& desc, std::size_t shard_rows) {
  // Resolve through the plan layer — the same cache, tuner policy and
  // engine derivation every other execution path uses, so the shard model
  // can never drift from what the runtime will actually run.
  PlanKey key = PlanKey::from(desc, rt_.config().tune);
  key.rows = shard_rows;  // GEMM: the row-panel form, even at l = 1
  const std::shared_ptr<const Plan> plan =
      rt_.plan_cache().get_or_build(rt_.config(), key);

  EngineParams ep;
  if (const auto* hc = std::get_if<blas3::MmHierConfig>(&plan->engine)) {
    ep.clock_mhz = hc->clock_mhz;
    ep.k = hc->k;
    ep.engine_l = hc->l;
    ep.b = hc->b;
    ep.engine_wpc =
        std::min(hc->dram_words_per_cycle, hc->link_words_per_cycle);
  } else if (const auto* tc = std::get_if<blas2::MxvTreeConfig>(&plan->engine)) {
    ep.clock_mhz = tc->clock_mhz;
    ep.k = tc->k;
  } else if (const auto* cc = std::get_if<blas2::MxvColConfig>(&plan->engine)) {
    ep.clock_mhz = cc->clock_mhz;
    ep.k = cc->k;
  } else {
    require(false, "shard: plan resolved to an unshardable engine");
  }
  return ep;
}

u64 ShardScheduler::modeled_total(const OpDesc& desc, unsigned l,
                                  const EngineParams& ep) {
  const double clock_hz = ep.clock_mhz * 1e6;
  model::ShardChainModel chain;
  chain.nodes_per_chassis = sys_.chassis.nodes;
  chain.link_wpc =
      mem::Channel::words_per_cycle_for(sys_.chassis.link_bytes_per_s, clock_hz);
  chain.xlink_wpc = mem::Channel::words_per_cycle_for(
      sys_.interchassis_bytes_per_s, clock_hz);

  if (desc.kind == OpKind::Gemm) {
    model::ShardGemmModel m;
    m.l = l;
    m.chain = chain;
    m.k = ep.k;
    m.engine_l = ep.engine_l;
    m.b = ep.b;
    m.engine_wpc = ep.engine_wpc;
    return model::shard_gemm_model_cycles(desc.n, m);
  }
  const double dc = static_cast<double>(desc.cols);
  std::vector<model::ShardCost> shards(l);
  for (unsigned i = 0; i < l; ++i) {
    const std::size_t rows = model::shard_rows(desc.rows, l, i);
    shards[i] = model::ShardCost{static_cast<double>(rows) * dc + dc,
                                 model::gemv_model_cycles(rows, desc.cols, ep.k),
                                 static_cast<double>(rows)};
  }
  return model::shard_timeline_cycles(shards, chain);
}

ShardPlan ShardScheduler::plan(const OpDesc& desc, unsigned forced_l) {
  desc.validate();
  require(desc.kind == OpKind::Gemm || desc.kind == OpKind::Gemv,
          "shard: only GEMM and GEMV can be sharded");
  require(desc.placement == Placement::Sram,
          "shard: sharded ops take Placement::Sram — the scatter legs are "
          "the staging");
  if (desc.kind == OpKind::Gemm) {
    require(desc.rows == 0, "shard: pass the square descriptor; the "
                            "scheduler derives the row panels");
  } else {
    require(desc.arch == GemvArch::Tree,
            "shard: sharded GEMV needs the tree architecture (the column "
            "design's rows/k hazard bound breaks under row splitting)");
  }

  const std::size_t rows = desc.kind == OpKind::Gemm ? desc.n : desc.rows;
  const unsigned total = sys_.chassis_count * sys_.chassis.nodes;
  const unsigned max_l =
      static_cast<unsigned>(std::min<std::size_t>(total, rows));
  require(max_l >= 1, "shard: nothing to split");
  require(forced_l <= max_l,
          cat("shard: l = ", forced_l, " exceeds ", max_l,
              " (min of machine FPGAs and rows)"));

  ShardPlan sp;
  sp.kind = desc.kind;
  sp.rows = rows;
  sp.n = desc.kind == OpKind::Gemm ? desc.n : desc.cols;

  // Joint choice of l and engine design: every candidate l re-resolves the
  // shard-0 panel through the plan layer (whose tuner picks the engine for
  // that panel shape) and is scored with the full scatter/compute/gather
  // timeline. Ties go to the smaller l — fewer FPGAs, same cycles.
  unsigned best_l = 1;
  u64 best_cycles = 0;
  EngineParams best_ep;
  for (unsigned l = 1; l <= max_l; ++l) {
    if (forced_l != 0 && l != forced_l) continue;
    const EngineParams ep = resolve_engine(desc, model::shard_rows(rows, l, 0));
    const u64 cycles = modeled_total(desc, l, ep);
    sp.candidates.push_back(ShardCandidate{l, cycles});
    if (sp.candidates.size() == 1 || cycles < best_cycles) {
      best_l = l;
      best_cycles = cycles;
      best_ep = ep;
    }
  }
  sp.l = best_l;
  sp.model_cycles = best_cycles;
  sp.clock_mhz = best_ep.clock_mhz;

  for (unsigned i = 0; i < sp.l; ++i) {
    ShardPiece piece;
    piece.index = i;
    piece.chassis = i / sys_.chassis.nodes;
    piece.node = i % sys_.chassis.nodes;
    piece.row0 = model::shard_row0(rows, sp.l, i);
    piece.rows = model::shard_rows(rows, sp.l, i);
    const EngineParams ep = resolve_engine(desc, piece.rows);
    piece.engine_cycles =
        desc.kind == OpKind::Gemm
            ? model::mm_hier_panel_cycles(piece.rows, desc.n, ep.k,
                                          ep.engine_l, ep.b, ep.engine_wpc)
            : model::gemv_model_cycles(piece.rows, desc.cols, ep.k);
    sp.pieces.push_back(piece);
  }
  return sp;
}

ShardOutcome ShardScheduler::run(const OpDesc& desc, unsigned forced_l) {
  ShardOutcome out;
  out.plan = plan(desc, forced_l);
  const unsigned l = out.plan.l;
  const std::size_t inner = desc.kind == OpKind::Gemm ? desc.n : desc.cols;

  // The installation's links, built at the engine clock so every link's
  // words/cycle and every engine cycle share one clock domain.
  machine::SystemConfig at_clock = sys_;
  at_clock.chassis.node.clock_mhz = out.plan.clock_mhz;
  machine::LinkChain chain(at_clock);

  // Slice the operand rows each shard owns (contiguous in the row-major
  // operand). At l = 1 the one piece is the whole operand, so it is not
  // copied.
  std::vector<std::vector<double>> panels(l > 1 ? l : 0);
  std::vector<OpDesc> subs(l);
  for (unsigned i = 0; i < l; ++i) {
    const ShardPiece& p = out.plan.pieces[i];
    const std::vector<double>* panel = desc.a;
    if (l > 1) {
      const double* base = desc.a->data() + p.row0 * inner;
      panels[i].assign(base, base + p.rows * inner);
      panel = &panels[i];
    }
    subs[i] = desc.kind == OpKind::Gemm
                  ? OpDesc::gemm_panel(*panel, p.rows, *desc.b, desc.n)
                  : OpDesc::gemv(*panel, p.rows, desc.cols, *desc.x,
                                 Placement::Sram, GemvArch::Tree);
  }

  // Scatter: shard i's operand panel (its A rows plus the shared operand —
  // B for GEMM, x for GEMV) walks hops 0..i-1, store-and-forward, shards
  // in ascending order.
  std::vector<u64> ready(l, 0);
  for (unsigned i = 1; i < l; ++i) {
    const std::size_t words =
        out.plan.pieces[i].rows * inner +
        (desc.kind == OpKind::Gemm ? desc.n * desc.n : desc.cols);
    u64 t = 0;
    for (unsigned p = 0; p < i; ++p)
      t = chain.drive_leg(p, /*forward=*/true, words, t);
    ready[i] = t;
  }

  // Execute the shards concurrently: the calling thread claims pieces
  // alongside the runtime's pool workers, so no piece waits for a worker to
  // wake (at l = 1 the caller runs the only one), and a piece's exception
  // reaches the caller once the others have finished. Engines are
  // deterministic, so concurrent execution is bit-identical to sequential.
  out.shards = rt_.run_parallel(subs);
  for (unsigned i = 0; i < l; ++i) {
    out.plan.pieces[i].engine_cycles = out.shards[i].report.cycles;
    out.plan.pieces[i].scatter_ready = ready[i];
  }

  // Gather: each result panel walks back to node 0 over the backward links
  // (sharing the inter-chassis channels with the scatter), again in
  // ascending shard order.
  u64 makespan = ready[0] + out.plan.pieces[0].engine_cycles;
  out.plan.pieces[0].done = makespan;
  for (unsigned i = 1; i < l; ++i) {
    const std::size_t words =
        out.plan.pieces[i].rows * (desc.kind == OpKind::Gemm ? desc.n : 1);
    u64 t = ready[i] + out.plan.pieces[i].engine_cycles;
    for (unsigned p = i; p-- > 0;)
      t = chain.drive_leg(p, /*forward=*/false, words, t);
    out.plan.pieces[i].done = t;
    makespan = std::max(makespan, t);
  }

  // Reduce in fixed deterministic order: ascending shard index, which is
  // ascending row blocks — a pure concatenation, so the reduced values are
  // bit-identical to single-device execution by construction.
  out.values.reserve(out.plan.rows *
                     (desc.kind == OpKind::Gemm ? desc.n : 1));
  // Words add up over the shards; stalls are the slowest shard's (the first
  // one on a tie), the shard that sets compute_cycles.
  const Outcome* slowest = &out.shards.front();
  for (const Outcome& s : out.shards) {
    out.values.insert(out.values.end(), s.values.begin(), s.values.end());
    out.report.flops += s.report.flops;
    out.report.sram_words += s.report.sram_words;
    out.report.dram_words += s.report.dram_words;
    if (s.report.cycles > slowest->report.cycles) slowest = &s;
  }
  const u64 max_engine = slowest->report.cycles;

  out.report.design =
      cat("shard l=", l, " over ", chain.chassis_count(), " chassis [",
          out.shards.front().report.design, "]");
  out.report.cycles = makespan;
  out.report.compute_cycles = max_engine;
  // The communication overhang beyond the slowest engine: scatter the
  // engines could not hide plus the serialized gather tail.
  out.report.staging_cycles = makespan - max_engine;
  out.report.stall_cycles = slowest->report.stall_cycles;
  out.report.clock_mhz = out.plan.clock_mhz;

  out.link_words = chain.link_words();
  out.interchassis_words = chain.interchassis_words();
  return out;
}

}  // namespace xd::host
