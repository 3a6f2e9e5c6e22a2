// Conjugate-gradient solver composed from the simulated FPGA BLAS.
//
// CG is the method the paper's Sec 7 names as the target for its iterative-
// solver building blocks ("Jacobi ... usually used as preconditioner for the
// more efficient methods like conjugate gradient"). Each iteration uses one
// GEMV (Level 2) and several dot products (Level 1) on the simulated XD1
// node — the exact composition pattern a downstream user of this library
// would write. Vector updates (axpy) stay on the host processor, matching
// the processor/FPGA split of the reconfigurable-system model.
//
//   ./examples/cg_solver [n] [max_iters]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/random.hpp"
#include "host/runtime.hpp"
#include "host/reference.hpp"

using namespace xd;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 192;
  const int max_iters = argc > 2 ? std::atoi(argv[2]) : 200;

  // SPD matrix: A = M^T M + n I.
  Rng rng(47);
  const auto m = rng.matrix(n, n, -1.0, 1.0);
  std::vector<double> a(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t q = 0; q < n; ++q) s += m[q * n + i] * m[q * n + j];
      a[i * n + j] = s + (i == j ? static_cast<double>(n) : 0.0);
    }
  }
  const auto x_true = rng.vector(n);
  const auto b = host::ref_gemv(a, n, n, x_true);

  host::Runtime rt(host::ContextConfig{});
  u64 fpga_cycles = 0, fpga_flops = 0;
  double clock_mhz = 164.0;

  auto fpga_gemv = [&](const std::vector<double>& v) {
    auto out = rt.run(host::OpDesc::gemv(a, n, n, v));
    fpga_cycles += out.report.cycles;
    fpga_flops += out.report.flops;
    clock_mhz = out.report.clock_mhz;
    return out.values;
  };
  auto fpga_dot = [&](const std::vector<double>& u, const std::vector<double>& v) {
    auto out = rt.run(host::OpDesc::dot(u, v));
    // Convert dot cycles (170 MHz design) into GEMV-clock cycles so the
    // aggregate time uses one clock domain.
    fpga_cycles += static_cast<u64>(static_cast<double>(out.report.cycles) *
                                    clock_mhz / out.report.clock_mhz);
    fpga_flops += out.report.flops;
    return out.values[0];
  };

  std::vector<double> x(n, 0.0);
  std::vector<double> r = b;  // residual (x0 = 0)
  std::vector<double> p = r;
  double rs_old = fpga_dot(r, r);

  std::printf("CG solve, n = %zu, GEMV + dot on the simulated XD1 FPGA\n\n", n);
  std::printf("%6s  %14s\n", "iter", "||r||");
  int iters = 0;
  for (; iters < max_iters; ++iters) {
    const auto ap = fpga_gemv(p);
    const double alpha = rs_old / fpga_dot(p, ap);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    const double rs_new = fpga_dot(r, r);
    if (iters % 10 == 0 || std::sqrt(rs_new) < 1e-10) {
      std::printf("%6d  %14.6e\n", iters, std::sqrt(rs_new));
    }
    if (std::sqrt(rs_new) < 1e-10) break;
    const double beta = rs_new / rs_old;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rs_old = rs_new;
  }

  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::fabs(x[i] - x_true[i]));
  const double seconds = static_cast<double>(fpga_cycles) / (clock_mhz * 1e6);
  std::printf("\nconverged in %d iterations, max |x - x_true| = %.3e\n", iters,
              err);
  std::printf("simulated FPGA time: %.3f ms, %.1f MFLOPS sustained "
              "(GEMV dominates; dots add the reduction-circuit tail)\n",
              seconds * 1e3, static_cast<double>(fpga_flops) / seconds / 1e6);
  return 0;
}
