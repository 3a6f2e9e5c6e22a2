// Sparse matrix-vector multiply tests: CRS structure, the tree-based SpMXV
// engine against dense references, irregular-row stress on the reduction
// circuit, and the workload generators.
#include <gtest/gtest.h>

#include <cmath>

#include "blas2/spmxv.hpp"
#include "common/random.hpp"
#include "host/reference.hpp"

using namespace xd;
using blas2::CrsMatrix;
using blas2::SpmxvConfig;
using blas2::SpmxvEngine;

namespace {

void expect_close(const std::vector<double>& got, const std::vector<double>& want,
                  double scale) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double tol = std::max(1e-12, std::fabs(want[i]) * 1e-12 * scale);
    EXPECT_NEAR(got[i], want[i], tol) << "row " << i;
  }
}

void check_against_dense(const CrsMatrix& a, u64 seed, unsigned k = 4) {
  Rng rng(seed);
  const auto x = rng.vector(a.cols);
  SpmxvConfig cfg;
  cfg.k = k;
  SpmxvEngine engine(cfg);
  const auto out = engine.run(a, x);
  const auto ref = host::ref_gemv(a.to_dense(), a.rows, a.cols, x);
  expect_close(out.y, ref, static_cast<double>(a.cols));
}

}  // namespace

TEST(Crs, FromDenseRoundTrip) {
  Rng rng(1);
  auto dense = rng.matrix(13, 17);
  // Punch holes.
  for (std::size_t i = 0; i < dense.size(); i += 3) dense[i] = 0.0;
  const auto crs = CrsMatrix::from_dense(dense, 13, 17);
  crs.validate();
  EXPECT_EQ(crs.to_dense(), dense);
  EXPECT_LT(crs.density(), 0.7);
}

TEST(Crs, ValidateCatchesCorruption) {
  auto m = blas2::make_uniform_sparse(8, 8, 3, 2);
  m.validate();
  auto bad = m;
  bad.col_idx[0] = 99;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = m;
  bad.row_ptr.back() += 1;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = m;
  bad.row_ptr.pop_back();
  EXPECT_THROW(bad.validate(), ConfigError);
}

TEST(SpmxvGenerators, ShapesAndDensities) {
  const auto u = blas2::make_uniform_sparse(50, 80, 6, 3);
  u.validate();
  EXPECT_EQ(u.nnz(), 50u * 6);
  EXPECT_NEAR(u.density(), 6.0 / 80.0, 1e-12);

  const auto b = blas2::make_banded(40, 2, 4);
  b.validate();
  EXPECT_EQ(b.row_ptr[1] - b.row_ptr[0], 3u);   // first row: diag + 2 right
  EXPECT_EQ(b.row_ptr[21] - b.row_ptr[20], 5u); // interior row: full band

  const auto p = blas2::make_power_law(100, 200, 50, 5);
  p.validate();
  std::size_t max_row = 0, min_row = SIZE_MAX;
  for (std::size_t i = 0; i < p.rows; ++i) {
    const std::size_t len = p.row_ptr[i + 1] - p.row_ptr[i];
    max_row = std::max(max_row, len);
    min_row = std::min(min_row, len);
  }
  EXPECT_GE(min_row, 1u);
  EXPECT_LE(max_row, 50u);
  EXPECT_GT(max_row, min_row);  // genuinely irregular
}

TEST(Spmxv, UniformSparseMatchesDense) {
  check_against_dense(blas2::make_uniform_sparse(64, 64, 8, 10), 100);
}

TEST(Spmxv, TridiagonalMatchesDense) {
  check_against_dense(blas2::make_banded(128, 1, 11), 101);
}

TEST(Spmxv, WideBandMatchesDense) {
  check_against_dense(blas2::make_banded(96, 10, 12), 102);
}

TEST(Spmxv, PowerLawIrregularRowsMatchDense) {
  // Row lengths from 1 to 60: arbitrary reduction-set sizes, the case the
  // proposed circuit exists for.
  check_against_dense(blas2::make_power_law(120, 150, 60, 13), 103);
}

TEST(Spmxv, EmptyRowsYieldZero) {
  CrsMatrix m;
  m.rows = 4;
  m.cols = 4;
  m.row_ptr = {0, 1, 1, 1, 2};  // rows 1 and 2 are empty
  m.values = {2.0, 3.0};
  m.col_idx = {0, 3};
  m.validate();
  SpmxvEngine engine{SpmxvConfig{}};
  const auto out = engine.run(m, {1.0, 1.0, 1.0, 4.0});
  EXPECT_EQ(out.y[0], 2.0);
  EXPECT_EQ(out.y[1], 0.0);
  EXPECT_EQ(out.y[2], 0.0);
  EXPECT_EQ(out.y[3], 12.0);

  // No nonzeros at all: every row is a bubble, and the empty value array
  // (whose data() may be null) is never copied.
  CrsMatrix none;
  none.rows = 3;
  none.cols = 3;
  none.row_ptr = {0, 0, 0, 0};
  none.validate();
  const auto zero = engine.run(none, {1.0, 2.0, 3.0});
  EXPECT_EQ(zero.y, std::vector<double>(3, 0.0));
  EXPECT_EQ(zero.report.cycles, 44u);
}

TEST(Spmxv, SingleElementRows) {
  check_against_dense(blas2::make_uniform_sparse(200, 64, 1, 14), 104);
}

class SpmxvLanes : public ::testing::TestWithParam<unsigned> {};

TEST_P(SpmxvLanes, LaneSweep) {
  check_against_dense(blas2::make_power_law(80, 100, 30, 15), 105, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Lanes, SpmxvLanes, ::testing::Values(1, 2, 4, 8));

TEST(Spmxv, FlopsCountNonzerosOnly) {
  const auto m = blas2::make_uniform_sparse(32, 64, 4, 16);
  Rng rng(17);
  SpmxvEngine engine{SpmxvConfig{}};
  const auto out = engine.run(m, rng.vector(64));
  EXPECT_EQ(out.report.flops, 2ull * m.nnz());
}

TEST(Spmxv, DenseEquivalentAgreesWithGemvEngine) {
  // A fully dense CRS matrix must produce the same values as the dense tree
  // engine (same architecture, same reduction order).
  Rng rng(18);
  const std::size_t n = 48;
  const auto dense = rng.matrix(n, n);
  const auto crs = CrsMatrix::from_dense(dense, n, n);
  const auto x = rng.vector(n);

  // The reduction circuit's combination order depends on arrival timing, so
  // bit-identity requires the same feed rate as the dense engine (4/cycle).
  SpmxvConfig scfg;
  scfg.mem_elements_per_cycle = 4.0;
  SpmxvEngine se{scfg};
  const auto ys = se.run(crs, x);
  blas2::MxvTreeEngine de{blas2::MxvTreeConfig{}};
  const auto yd = de.run(dense, n, n, x);
  ASSERT_EQ(ys.y.size(), yd.y.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ys.y[i], yd.y[i]) << "row " << i;  // bit-identical
  }
}

TEST(Spmxv, ThroughputTracksNnzNotDimension) {
  // I/O-bound shape: cycles ~ nnz / min(k, elements-per-cycle), independent
  // of the dense dimension.
  Rng rng(19);
  SpmxvConfig cfg;
  cfg.k = 4;
  cfg.mem_elements_per_cycle = 4.0;
  SpmxvEngine engine(cfg);
  const auto small_dim = blas2::make_uniform_sparse(256, 256, 16, 20);
  const auto large_dim = blas2::make_uniform_sparse(256, 2048, 16, 21);
  const auto c1 = engine.run(small_dim, rng.vector(256)).report.cycles;
  const auto c2 = engine.run(large_dim, rng.vector(2048)).report.cycles;
  EXPECT_NEAR(static_cast<double>(c1) / static_cast<double>(c2), 1.0, 0.05);
}
