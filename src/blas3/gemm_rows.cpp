#include "blas3/gemm_rows.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "fp/backend.hpp"

namespace xd::blas3 {

std::vector<double> gemm_row_blocks(const std::vector<double>& a,
                                    std::size_t rows,
                                    const std::vector<double>& b,
                                    std::size_t n) {
  std::vector<double> c(rows * n);
  const fp::Backend& be = fp::active_backend();
  const std::size_t blocks = std::max<std::size_t>(
      1, std::min<std::size_t>(rows * n * n / kMinBlockMacs,
                               ThreadPool::shared().size()));
  parallel_for(
      0, blocks,
      [&](std::size_t blk) {
        const std::size_t r0 = rows * blk / blocks;
        const std::size_t r1 = rows * (blk + 1) / blocks;
        be.gemm_rows(a.data() + r0 * n, b.data(), c.data() + r0 * n, r1 - r0,
                     n);
      },
      static_cast<unsigned>(blocks));
  return c;
}

}  // namespace xd::blas3
