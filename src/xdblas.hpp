// Umbrella header: everything a library user needs.
//
//   #include "xdblas.hpp"
//   xd::host::Runtime rt(xd::host::ContextConfig{});   // one XD1 node
//   auto out = rt.run(xd::host::OpDesc::gemm(a, b, n));
//   // out.values is row-major C, out.report the simulated cycles
//
// Every op runs this one way: an OpDesc through Runtime::run (or submit)
// into an Outcome. A Context bundles a config with its Runtime for the
// solvers and the BLAS compat layer.
//
// Finer-grained headers remain available for users who want a single engine
// (e.g. reduce/reduction_circuit.hpp for just the reduction circuit).
#pragma once

#include "blas1/dot_engine.hpp"
#include "blas2/blocking.hpp"
#include "blas2/mxv_col.hpp"
#include "blas2/mxv_on_node.hpp"
#include "blas2/mxv_tree.hpp"
#include "blas2/spmxv.hpp"
#include "blas3/mm_array.hpp"
#include "blas3/mm_hier.hpp"
#include "blas3/mm_multi.hpp"
#include "blas3/mm_on_node.hpp"
#include "common/parallel.hpp"
#include "common/thread_pool.hpp"
#include "host/blas_compat.hpp"
#include "host/context.hpp"
#include "host/graph.hpp"
#include "host/op.hpp"
#include "host/plan.hpp"
#include "host/reference.hpp"
#include "host/runtime.hpp"
#include "host/tuner.hpp"
#include "machine/system.hpp"
#include "model/perf_model.hpp"
#include "model/projections.hpp"
#include "reduce/baselines.hpp"
#include "reduce/reduction_circuit.hpp"
#include "solver/cg.hpp"
#include "solver/jacobi.hpp"
