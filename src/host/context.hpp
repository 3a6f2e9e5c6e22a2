// xdblas host context: one machine description and the runtime that runs
// operations on it.
//
// A Context binds a ContextConfig (device, clocks, memory bandwidths — by
// default one Cray XD1 node as measured in the paper) to a host::Runtime.
// Every operation runs through that runtime as an OpDesc and comes back as
// one Outcome (values + PerfReport):
//
//   xd::host::Context ctx;                                  // one XD1 node
//   auto& rt = ctx.runtime();
//   auto d = rt.run(host::OpDesc::dot(u, v));               // Level 1
//   auto y = rt.run(host::OpDesc::gemv(a, n, n, x));        // Level 2 (tree)
//   auto c = rt.run(host::OpDesc::gemm(a, b, n));           // Level 3
//   auto fut = rt.submit(host::OpDesc::gemv(a, n, n, x));   // pooled
//
// The PerfReport carries cycles, seconds at the design's post-P&R clock,
// sustained MFLOPS and achieved bandwidths — the columns of the paper's
// Tables 3/4. Source placement matters for the I/O-bound operations:
// Placement::Sram streams operands from the FPGA's SRAM banks;
// Placement::Dram prepends the DRAM->SRAM staging phase over the RapidArray
// link, reproducing the 8.0 ms / 1.6 ms split of Table 4.
//
// Design-level helpers are free functions of the configuration:
// host::choose_panel_edge, gemv_bram_plan, gemm_bram_plan and
// gemv_onchip_x_capacity (plan.hpp); design areas come from
// machine::AreaModel.
#pragma once

#include <memory>

#include "host/config.hpp"
#include "host/op.hpp"
#include "host/runtime.hpp"

namespace xd::host {

class Context {
 public:
  Context() : Context(ContextConfig{}) {}
  explicit Context(const ContextConfig& cfg);

  /// The plan/execute runtime behind this context: run(OpDesc) on the
  /// calling thread, submit(OpDesc) for concurrent jobs, run_batch() for
  /// fan-out/wait, plan_cache() for the memoized plans. Shared worker pool,
  /// per-context plan cache.
  Runtime& runtime() const { return *runtime_; }

  const ContextConfig& config() const { return cfg_; }

 private:
  ContextConfig cfg_;
  std::unique_ptr<Runtime> runtime_;
};

}  // namespace xd::host
