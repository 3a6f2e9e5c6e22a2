// Jacobi iterative solver on the simulated FPGA BLAS (the paper's Sec 7
// points to exactly this application [18]: an FPGA-based floating-point
// Jacobi solver built on the GEMV design).
//
// Solves A x = b for a diagonally dominant system using
//   x_{k+1} = D^{-1} (b - R x_k)
// where the R x_k products run on the simulated Level 2 GEMV engine. The
// example reports convergence and the aggregate simulated FPGA time, showing
// what the BLAS library costs/buys inside a real numerical loop.
//
//   ./examples/jacobi_solver [n] [max_iters]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/random.hpp"
#include "host/runtime.hpp"
#include "host/reference.hpp"

using namespace xd;

namespace {

double residual_norm(const std::vector<double>& a, std::size_t n,
                     const std::vector<double>& x, const std::vector<double>& b) {
  const auto ax = host::ref_gemv(a, n, n, x);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += (ax[i] - b[i]) * (ax[i] - b[i]);
  return std::sqrt(s);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 256;
  const int max_iters = argc > 2 ? std::atoi(argv[2]) : 50;

  Rng rng(31);
  // Diagonally dominant A ensures Jacobi converges.
  auto a = rng.matrix(n, n, -1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) off += std::fabs(a[i * n + j]);
    }
    a[i * n + i] = off + 1.0;
  }
  const auto x_true = rng.vector(n);
  const auto b = host::ref_gemv(a, n, n, x_true);

  // R = A with a zeroed diagonal; D = diag(A).
  auto r = a;
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    diag[i] = a[i * n + i];
    r[i * n + i] = 0.0;
  }

  host::Runtime rt(host::ContextConfig{});
  std::vector<double> x(n, 0.0);
  u64 fpga_cycles = 0;
  u64 fpga_flops = 0;
  double clock_mhz = 0.0;

  std::printf("Jacobi solve, n = %zu, GEMV on the simulated XD1 FPGA\n\n", n);
  std::printf("%6s  %14s\n", "iter", "||Ax-b||");
  int iters = 0;
  for (; iters < max_iters; ++iters) {
    // R x on the FPGA (Level 2 BLAS); the diagonal solve stays on the host,
    // exactly the processor/FPGA split the reconfigurable systems use.
    const auto rx = rt.run(host::OpDesc::gemv(r, n, n, x));
    fpga_cycles += rx.report.cycles;
    fpga_flops += rx.report.flops;
    clock_mhz = rx.report.clock_mhz;
    for (std::size_t i = 0; i < n; ++i) x[i] = (b[i] - rx.values[i]) / diag[i];

    const double res = residual_norm(a, n, x, b);
    if (iters % 5 == 0 || res < 1e-10) std::printf("%6d  %14.6e\n", iters, res);
    if (res < 1e-10) break;
  }

  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) err = std::max(err, std::fabs(x[i] - x_true[i]));

  const double seconds = static_cast<double>(fpga_cycles) / (clock_mhz * 1e6);
  std::printf("\nconverged in %d iterations, max |x - x_true| = %.3e\n", iters,
              err);
  std::printf("simulated FPGA time: %.3f ms (%llu cycles at %.0f MHz), "
              "%.1f MFLOPS sustained across the solve\n",
              seconds * 1e3, static_cast<unsigned long long>(fpga_cycles),
              clock_mhz, static_cast<double>(fpga_flops) / seconds / 1e6);
  return 0;
}
