// The values of every GEMM engine that computes them on the host kernel
// (MmHierEngine, MmMultiEngine, MmOnNodeEngine): C = A . B through the
// active FP backend's gemm_rows, in contiguous row blocks.
#pragma once

#include <cstddef>
#include <vector>

namespace xd::blas3 {

/// MACs a row block must hold before a product splits. A smaller block's
/// kernel time is of the order of a pool hand-off, so a 96 x 96 GEMM
/// (884,736 MACs) runs on the calling thread.
inline constexpr std::size_t kMinBlockMacs = std::size_t{1} << 21;

/// C (rows x n) = A (rows x n) . B (n x n), all row-major. The rows split
/// into min(pool size, rows * n * n / kMinBlockMacs) contiguous blocks (at
/// least one) on parallel_for, one gemm_rows call each. Every C element
/// adds its products in ascending inner index whatever block it lands in,
/// so the bits do not depend on the split.
std::vector<double> gemm_row_blocks(const std::vector<double>& a,
                                    std::size_t rows,
                                    const std::vector<double>& b,
                                    std::size_t n);

}  // namespace xd::blas3
