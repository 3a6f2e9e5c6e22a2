#include "host/op.hpp"

#include <limits>

namespace xd::host {

namespace {

/// rows * cols (or n * n) with an overflow check: a wrapped product can
/// equal a tiny operand's size and pass the naive equality test, after which
/// the engine indexes far past the operand's end.
std::size_t shape_product(std::size_t x, std::size_t y, const char* what) {
  if (y != 0 && x > std::numeric_limits<std::size_t>::max() / y) {
    require(false, cat(what, ": shape product overflows"));
  }
  return x * y;
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::Dot: return "dot";
    case OpKind::DotBatch: return "dot_batch";
    case OpKind::Gemv: return "gemv";
    case OpKind::GemvAuto: return "gemv_auto";
    case OpKind::Spmxv: return "spmxv";
    case OpKind::Gemm: return "gemm";
    case OpKind::GemmArray: return "gemm_array";
    case OpKind::GemmMulti: return "gemm_multi";
  }
  return "unknown";
}

const char* placement_name(Placement p) {
  return p == Placement::Dram ? "dram" : "sram";
}

const char* gemv_arch_name(GemvArch a) {
  return a == GemvArch::Column ? "col" : "tree";
}

bool op_kind_from_name(std::string_view name, OpKind& out) {
  for (const OpKind k :
       {OpKind::Dot, OpKind::DotBatch, OpKind::Gemv, OpKind::GemvAuto,
        OpKind::Spmxv, OpKind::Gemm, OpKind::GemmArray, OpKind::GemmMulti}) {
    if (name == op_kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool placement_from_name(std::string_view name, Placement& out) {
  if (name == "sram") {
    out = Placement::Sram;
    return true;
  }
  if (name == "dram") {
    out = Placement::Dram;
    return true;
  }
  return false;
}

bool gemv_arch_from_name(std::string_view name, GemvArch& out) {
  if (name == "tree") {
    out = GemvArch::Tree;
    return true;
  }
  if (name == "col") {
    out = GemvArch::Column;
    return true;
  }
  return false;
}

OpDesc OpDesc::dot(const std::vector<double>& u, const std::vector<double>& v,
                   Placement src) {
  OpDesc d;
  d.kind = OpKind::Dot;
  d.placement = src;
  d.cols = u.size();
  d.a = &u;
  d.b = &v;
  return d;
}

OpDesc OpDesc::dot_batch(const std::vector<std::vector<double>>& us,
                         const std::vector<std::vector<double>>& vs) {
  OpDesc d;
  d.kind = OpKind::DotBatch;
  d.batch = us.size();
  d.us = &us;
  d.vs = &vs;
  return d;
}

OpDesc OpDesc::gemv(const std::vector<double>& a, std::size_t rows,
                    std::size_t cols, const std::vector<double>& x,
                    Placement src, GemvArch arch) {
  OpDesc d;
  d.kind = OpKind::Gemv;
  d.placement = src;
  d.arch = arch;
  d.rows = rows;
  d.cols = cols;
  d.a = &a;
  d.x = &x;
  return d;
}

OpDesc OpDesc::gemv_auto(const std::vector<double>& a, std::size_t rows,
                         std::size_t cols, const std::vector<double>& x) {
  OpDesc d = gemv(a, rows, cols, x);
  d.kind = OpKind::GemvAuto;
  return d;
}

OpDesc OpDesc::spmxv(const blas2::CrsMatrix& a, const std::vector<double>& x) {
  OpDesc d;
  d.kind = OpKind::Spmxv;
  d.rows = a.rows;
  d.cols = a.cols;
  d.sparse = &a;
  d.x = &x;
  return d;
}

OpDesc OpDesc::gemm(const std::vector<double>& a, const std::vector<double>& b,
                    std::size_t n) {
  OpDesc d;
  d.kind = OpKind::Gemm;
  d.n = n;
  d.a = &a;
  d.b = &b;
  return d;
}

OpDesc OpDesc::gemm_panel(const std::vector<double>& a, std::size_t rows,
                          const std::vector<double>& b, std::size_t n) {
  OpDesc d = gemm(a, b, n);
  d.rows = rows;
  return d;
}

OpDesc OpDesc::gemm_array(const std::vector<double>& a,
                          const std::vector<double>& b, std::size_t n) {
  OpDesc d = gemm(a, b, n);
  d.kind = OpKind::GemmArray;
  return d;
}

OpDesc OpDesc::gemm_multi(const std::vector<double>& a,
                          const std::vector<double>& b, std::size_t n) {
  OpDesc d = gemm(a, b, n);
  d.kind = OpKind::GemmMulti;
  return d;
}

void OpDesc::validate() const {
  switch (kind) {
    case OpKind::Dot:
      require(a && b, "dot: missing operands");
      require(a->size() == cols && b->size() == cols,
              "dot: operand sizes disagree with the descriptor");
      break;
    case OpKind::DotBatch:
      require(us && vs, "dot_batch: missing operands");
      require(us->size() == batch && vs->size() == batch,
              "dot_batch: batch size disagrees with the descriptor");
      break;
    case OpKind::Gemv:
    case OpKind::GemvAuto:
      require(a && x, "gemv: missing operands");
      require(a->size() == shape_product(rows, cols, "gemv"),
              "gemv: A size != rows * cols");
      require(x->size() == cols, "gemv: x size != cols");
      break;
    case OpKind::Spmxv:
      require(sparse && x, "spmxv: missing operands");
      sparse->validate();
      require(sparse->rows == rows && sparse->cols == cols,
              "spmxv: descriptor shape disagrees with the CRS matrix");
      require(x->size() == sparse->cols, "spmxv: x size != cols");
      break;
    case OpKind::Gemm:
    case OpKind::GemmArray:
    case OpKind::GemmMulti: {
      require(a && b, "gemm: missing operands");
      const std::size_t elems = shape_product(n, n, "gemm");
      require(b->size() == elems, "gemm: matrix size != n * n");
      if (rows == 0) {
        require(a->size() == elems, "gemm: matrix size != n * n");
      } else {
        // Row-panel form: only the hierarchical engine runs panels; the
        // cycle-accurate array/multi engines are square-only.
        require(kind == OpKind::Gemm,
                "gemm: row panels need the hierarchical engine");
        require(a->size() == shape_product(rows, n, "gemm panel"),
                "gemm: A size != rows * n");
      }
      break;
    }
  }
}

}  // namespace xd::host
