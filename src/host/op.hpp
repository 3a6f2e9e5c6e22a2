// Unified operation / outcome layer for the host runtime.
//
// Every operation the library implements is described by one OpDesc (op
// kind, shapes, placement, architecture choice, pointers to the operands)
// and runs through host::Runtime::run (or submit) into one Outcome: the
// result values and the PerfReport.
//
//   host::Runtime rt(cfg);
//   const host::Outcome out = rt.run(host::OpDesc::gemv(a, n, n, x));
//   // out.values is y, out.report the cycles, clock and traffic
//
// The engines keep their native outcome structs (with engine-specific
// extras such as per-FPGA stats); the runtime keeps only values and report.
//
// OpDesc does not own its operands: the caller keeps the vectors alive
// until the operation's Outcome (or future) has been consumed. The
// factories below are the supported way to build descriptors.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "blas2/spmxv.hpp"
#include "host/config.hpp"
#include "host/report.hpp"

namespace xd::host {

enum class OpKind {
  Dot,        ///< u . v (Level 1)
  DotBatch,   ///< batched dot products, one reduction set each
  Gemv,       ///< y = A x (Level 2, tree or column arch)
  GemvAuto,   ///< GEMV with automatic blocked fallback
  Spmxv,      ///< sparse y = A x (CRS, tree arch)
  Gemm,       ///< C = A B, hierarchical SRAM-blocked design (Level 3)
  GemmArray,  ///< C = A B, cycle-accurate single-FPGA PE array
  GemmMulti,  ///< C = A B, cycle-accurate multi-FPGA pipeline
};

const char* op_kind_name(OpKind kind);
const char* placement_name(Placement p);
const char* gemv_arch_name(GemvArch a);

// Parse hooks for the serialized descriptor form (the fuzz corpus and any
// future wire format). Return false on an unknown name.
bool op_kind_from_name(std::string_view name, OpKind& out);
bool placement_from_name(std::string_view name, Placement& out);
bool gemv_arch_from_name(std::string_view name, GemvArch& out);

/// The one outcome type every engine run produces. `values` holds the
/// numeric payload: the dot results, y, or row-major C.
struct Outcome {
  OpKind kind = OpKind::Dot;
  std::vector<double> values;
  PerfReport report;
};

/// One operation, fully described. Build with the factories; shapes live
/// here (they key the plan cache), operands stay caller-owned.
struct OpDesc {
  OpKind kind = OpKind::Dot;
  Placement placement = Placement::Sram;
  GemvArch arch = GemvArch::Tree;
  std::size_t rows = 0;  ///< GEMV: rows of A; Gemm: panel rows (0 = square)
  std::size_t cols = 0;  ///< dot: n; GEMV: cols of A
  std::size_t n = 0;     ///< GEMM: matrix edge
  std::size_t batch = 0; ///< DotBatch: number of pairs

  const std::vector<double>* a = nullptr;  ///< matrix A (or dot operand u)
  const std::vector<double>* b = nullptr;  ///< matrix B (or dot operand v)
  const std::vector<double>* x = nullptr;  ///< vector operand
  const blas2::CrsMatrix* sparse = nullptr;
  const std::vector<std::vector<double>>* us = nullptr;
  const std::vector<std::vector<double>>* vs = nullptr;

  static OpDesc dot(const std::vector<double>& u, const std::vector<double>& v,
                    Placement src = Placement::Sram);
  static OpDesc dot_batch(const std::vector<std::vector<double>>& us,
                          const std::vector<std::vector<double>>& vs);
  static OpDesc gemv(const std::vector<double>& a, std::size_t rows,
                     std::size_t cols, const std::vector<double>& x,
                     Placement src = Placement::Sram,
                     GemvArch arch = GemvArch::Tree);
  static OpDesc gemv_auto(const std::vector<double>& a, std::size_t rows,
                          std::size_t cols, const std::vector<double>& x);
  static OpDesc spmxv(const blas2::CrsMatrix& a, const std::vector<double>& x);
  static OpDesc gemm(const std::vector<double>& a, const std::vector<double>& b,
                     std::size_t n);
  /// Row-panel GEMM: C = A B where A is rows x n and B is n x n. This is
  /// the sub-op shape the shard scheduler dispatches (hierarchical engine
  /// only); rows == 0 is reserved to mean "square" on a plain gemm().
  static OpDesc gemm_panel(const std::vector<double>& a, std::size_t rows,
                           const std::vector<double>& b, std::size_t n);
  static OpDesc gemm_array(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t n);
  static OpDesc gemm_multi(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t n);

  /// Check the operand pointers/sizes against the declared shapes; throws
  /// ConfigError on a mismatch, on a shape product that overflows size_t
  /// (a wrapped rows*cols could otherwise alias a tiny operand and send the
  /// engine out of bounds), or on a structurally invalid sparse matrix.
  /// Runs before any plan is built.
  void validate() const;
};

}  // namespace xd::host
