#include "host/blas_compat.hpp"

#include <algorithm>
#include <vector>

namespace xd::host {

namespace {

/// Gather a strided BLAS vector into contiguous storage. Negative strides
/// walk backwards from the end, per BLAS convention.
std::vector<double> gather(std::size_t n, const double* x, int inc) {
  require(inc != 0, "BLAS stride must be nonzero");
  std::vector<double> v(n);
  const long step = inc;
  long idx = inc > 0 ? 0 : -static_cast<long>(n - 1) * step;
  for (std::size_t i = 0; i < n; ++i, idx += step) v[i] = x[idx];
  return v;
}

void scatter_axpby(std::size_t n, const std::vector<double>& src, double alpha,
                   double beta, double* y, int inc) {
  require(inc != 0, "BLAS stride must be nonzero");
  const long step = inc;
  long idx = inc > 0 ? 0 : -static_cast<long>(n - 1) * step;
  for (std::size_t i = 0; i < n; ++i, idx += step) {
    y[idx] = alpha * src[i] + beta * y[idx];
  }
}

/// Materialize op(A) as a dense row-major rows x cols matrix.
std::vector<double> materialize(Transpose trans, std::size_t rows,
                                std::size_t cols, const double* a,
                                std::size_t lda) {
  std::vector<double> m(rows * cols);
  if (trans == Transpose::No) {
    require(lda >= cols, "lda too small");
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) m[i * cols + j] = a[i * lda + j];
    }
  } else {
    require(lda >= rows, "lda too small");
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) m[i * cols + j] = a[j * lda + i];
    }
  }
  return m;
}

}  // namespace

double compat_ddot(const Context& ctx, std::size_t n, const double* x, int incx,
                   const double* y, int incy, PerfReport* report) {
  if (n == 0) return 0.0;
  const auto xv = gather(n, x, incx);
  const auto yv = gather(n, y, incy);
  const auto out = ctx.runtime().run(OpDesc::dot(xv, yv));
  if (report) *report = out.report;
  return out.values.front();
}

void compat_dgemv(const Context& ctx, Transpose trans, std::size_t m,
                  std::size_t n, double alpha, const double* a, std::size_t lda,
                  const double* x, int incx, double beta, double* y, int incy,
                  PerfReport* report) {
  const std::size_t rows = trans == Transpose::No ? m : n;
  const std::size_t cols = trans == Transpose::No ? n : m;
  if (rows == 0) return;
  if (alpha == 0.0 || cols == 0) {
    std::vector<double> zero(rows, 0.0);
    scatter_axpby(rows, zero, 0.0, beta, y, incy);
    return;
  }
  // op(A) materializes host-side; the streaming product runs on the FPGA.
  const auto op_a = materialize(trans, rows, cols, a, lda);
  const auto xv = gather(cols, x, incx);
  const auto out = ctx.runtime().run(OpDesc::gemv(op_a, rows, cols, xv));
  if (report) *report = out.report;
  scatter_axpby(rows, out.values, alpha, beta, y, incy);
}

void compat_dgemm(const Context& ctx, Transpose transa, Transpose transb,
                  std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, std::size_t lda, const double* b,
                  std::size_t ldb, double beta, double* c, std::size_t ldc,
                  PerfReport* report) {
  require(ldc >= n || m == 0, "ldc too small");
  if (m == 0 || n == 0) return;
  if (alpha == 0.0 || k == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) c[i * ldc + j] *= beta;
    }
    return;
  }

  // Pad to the smallest square multiple of the design's on-chip block edge
  // that holds op(A) (m x k) and op(B) (k x n); the hierarchical engine then
  // runs with SRAM panel edge = the padded size (l = 1 node).
  const auto& cfg = ctx.config();
  const std::size_t edge = std::max({m, n, k, static_cast<std::size_t>(cfg.mm_m)});
  const std::size_t N = ceil_div(edge, cfg.mm_m) * cfg.mm_m;

  const auto op_a = materialize(transa, m, k, a, lda);
  const auto op_b = materialize(transb, k, n, b, ldb);
  std::vector<double> pa(N * N, 0.0), pb(N * N, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    std::copy_n(&op_a[i * k], k, &pa[i * N]);
  }
  for (std::size_t i = 0; i < k; ++i) {
    std::copy_n(&op_b[i * n], n, &pb[i * N]);
  }

  ContextConfig padded_cfg = cfg;
  padded_cfg.mm_b = N;  // one SRAM panel covers the padded problem
  const auto out = Runtime(padded_cfg).run(OpDesc::gemm(pa, pb, N));
  if (report) *report = out.report;

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] = alpha * out.values[i * N + j] + beta * c[i * ldc + j];
    }
  }
}

double xd_ddot(std::size_t n, const double* x, int incx, const double* y,
               int incy) {
  return compat_ddot(Context{}, n, x, incx, y, incy);
}

void xd_dgemv(Transpose trans, std::size_t m, std::size_t n, double alpha,
              const double* a, std::size_t lda, const double* x, int incx,
              double beta, double* y, int incy) {
  compat_dgemv(Context{}, trans, m, n, alpha, a, lda, x, incx, beta, y, incy);
}

void xd_dgemm(Transpose transa, Transpose transb, std::size_t m, std::size_t n,
              std::size_t k, double alpha, const double* a, std::size_t lda,
              const double* b, std::size_t ldb, double beta, double* c,
              std::size_t ldc) {
  compat_dgemm(Context{}, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
               c, ldc);
}

}  // namespace xd::host
