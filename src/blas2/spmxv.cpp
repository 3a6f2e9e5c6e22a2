#include "blas2/spmxv.hpp"

#include <algorithm>
#include <cstring>

#include "common/random.hpp"
#include "mem/channel.hpp"
#include "sim/mac_reduce.hpp"
#include "telemetry/session.hpp"

namespace xd::blas2 {

namespace {

/// CRS gather: up to k (value, column) pairs of the current row per cycle,
/// each multiplier looking its column up in the local bit copy of x.
struct CrsFeeder {
  const CrsMatrix& a;
  const u64* vbits;
  const u64* xbits;
  unsigned k;
  mem::Channel& channel;
  const fp::Backend& be = fp::active_backend();
  std::size_t row = 0, elem = 0;
  u64 streamed_elements = 0;

  void tick() { channel.tick(); }
  bool more() const { return row < a.rows; }
  void issue(u64 cycle, fp::MultiplierBank& mults) {
    // An empty row still streams one element: the hardware injects a bubble
    // so every row produces exactly one reduction set.
    const std::size_t row_end = a.row_ptr[row + 1];
    const std::size_t active = std::min<std::size_t>(k, row_end - elem);
    const std::size_t streamed = std::max<std::size_t>(1, active);
    if (!channel.can_transfer(static_cast<double>(streamed))) return;
    channel.transfer(static_cast<double>(streamed));
    streamed_elements += streamed;
    const bool last = (elem + active == row_end);
    u64* products = mults.stage(cycle, last);
    const u64* vals = vbits + elem;
    const std::size_t* cols = a.col_idx.data() + elem;
    for (std::size_t lane = 0; lane < active; ++lane) {
      products[lane] = be.mul(vals[lane], xbits[cols[lane]]);
    }
    // Pad idle lanes (short tail group, or the bubble of an empty row).
    std::fill(products + active, products + mults.width(), fp::kPosZero);
    elem += active;
    if (last) ++row;  // elem == row_end == the next row's start
  }
};

/// dst = the bit patterns of src. An empty src may have a null data(),
/// which memcpy must never see.
void load_bits(std::vector<u64>& dst, const std::vector<double>& src) {
  dst.resize(src.size());
  if (!src.empty()) {
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(double));
  }
}

}  // namespace

void CrsMatrix::validate() const {
  require(row_ptr.size() == rows + 1, "CRS: row_ptr must have rows+1 entries");
  require(row_ptr.front() == 0 && row_ptr.back() == values.size(),
          "CRS: row_ptr must start at 0 and end at nnz");
  require(values.size() == col_idx.size(), "CRS: values/col_idx size mismatch");
  for (std::size_t i = 0; i < rows; ++i) {
    require(row_ptr[i] <= row_ptr[i + 1], "CRS: row_ptr must be non-decreasing");
  }
  for (std::size_t c : col_idx) {
    require(c < cols, "CRS: column index out of range");
  }
}

CrsMatrix CrsMatrix::from_dense(const std::vector<double>& dense,
                                std::size_t rows, std::size_t cols) {
  require(dense.size() == rows * cols, "CRS from_dense: size mismatch");
  CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.reserve(rows + 1);
  m.row_ptr.push_back(0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const double v = dense[i * cols + j];
      if (v != 0.0) {
        m.values.push_back(v);
        m.col_idx.push_back(j);
      }
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

std::vector<double> CrsMatrix::to_dense() const {
  std::vector<double> d(rows * cols, 0.0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      d[i * cols + col_idx[e]] = values[e];
    }
  }
  return d;
}

SpmxvEngine::SpmxvEngine(const SpmxvConfig& cfg) : cfg_(cfg) {
  sim::require_mac_reduce_config("SpMXV engine", cfg.k,
                                 cfg.mem_elements_per_cycle);
}

MxvOutcome SpmxvEngine::run(const CrsMatrix& a, const std::vector<double>& x) {
  a.validate();
  require(x.size() == a.cols, "SpMXV: x length mismatch");
  require(a.rows >= 1, "SpMXV: empty matrix");

  const unsigned k = cfg_.k;
  mem::Channel channel(cfg_.mem_elements_per_cycle, "spmxv.mem",
                       std::max(cfg_.mem_elements_per_cycle + 2.0,
                                static_cast<double>(k)));
  sim::TreeScratchLease scratch(
      sim::mac_reduce_key(k, cfg_.adder_stages, cfg_.multiplier_stages));
  // Pre-convert x and the CRS value array to bit patterns once, so the lane
  // loop is a pure gather-multiply (col_idx indexes xbits).
  load_bits(scratch->xbits, x);
  load_bits(scratch->abits, a.values);
  CrsFeeder feed{a, scratch->abits.data(), scratch->xbits.data(), k, channel};

  MxvOutcome out;
  out.y.assign(a.rows, 0.0);
  const auto run = sim::run_mac_reduce(*scratch, k, feed, out.y, cfg_.telemetry);

  out.report.design = cat("spmxv-tree k=", k);
  out.report.cycles = run.cycles;
  out.report.compute_cycles = run.cycles;
  out.report.flops = 2ull * a.nnz();
  out.report.stall_cycles = run.stall_cycles;
  // Each CRS element is a value word + an index word; y streams out too.
  out.report.sram_words = 2.0 * static_cast<double>(feed.streamed_elements) +
                          static_cast<double>(a.rows);
  out.report.clock_mhz = cfg_.clock_mhz;

  if (telemetry::Session* tel = cfg_.telemetry) {
    tel->phase("compute", run.cycles);
    channel.publish(tel->metrics(), "mem.spmxv.sram");
    sim::publish_mac_reduce(tel->metrics(), *scratch, k, "spmxv", "blas2.spmxv",
                            run.cycles, out.report.flops, run.stall_cycles);
    auto row_nnz = tel->histogram("blas2.spmxv.row_nnz");
    for (std::size_t i = 0; i < a.rows; ++i) {
      row_nnz.observe(static_cast<double>(a.row_ptr[i + 1] - a.row_ptr[i]));
    }
  }
  return out;
}

// ---- generators ------------------------------------------------------------

CrsMatrix make_uniform_sparse(std::size_t rows, std::size_t cols,
                              std::size_t nnz_per_row, u64 seed) {
  require(nnz_per_row <= cols, "nnz_per_row exceeds cols");
  Rng rng(seed);
  CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.push_back(0);
  std::vector<std::size_t> pick(cols);
  for (std::size_t j = 0; j < cols; ++j) pick[j] = j;
  for (std::size_t i = 0; i < rows; ++i) {
    // Partial Fisher-Yates for a sorted random column subset.
    for (std::size_t t = 0; t < nnz_per_row; ++t) {
      const std::size_t r = t + rng.uniform_int(0, cols - 1 - t);
      std::swap(pick[t], pick[r]);
    }
    std::sort(pick.begin(), pick.begin() + static_cast<long>(nnz_per_row));
    for (std::size_t t = 0; t < nnz_per_row; ++t) {
      m.values.push_back(rng.uniform(-1.0, 1.0));
      m.col_idx.push_back(pick[t]);
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

CrsMatrix make_banded(std::size_t n, std::size_t half_bandwidth, u64 seed) {
  Rng rng(seed);
  CrsMatrix m;
  m.rows = n;
  m.cols = n;
  m.row_ptr.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i >= half_bandwidth ? i - half_bandwidth : 0;
    const std::size_t hi = std::min(n - 1, i + half_bandwidth);
    for (std::size_t j = lo; j <= hi; ++j) {
      m.values.push_back(rng.uniform(-1.0, 1.0));
      m.col_idx.push_back(j);
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

CrsMatrix make_power_law(std::size_t rows, std::size_t cols, std::size_t max_row,
                         u64 seed) {
  require(max_row >= 1 && max_row <= cols, "bad max_row");
  Rng rng(seed);
  CrsMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.row_ptr.push_back(0);
  std::vector<std::size_t> pick(cols);
  for (std::size_t j = 0; j < cols; ++j) pick[j] = j;
  for (std::size_t i = 0; i < rows; ++i) {
    // Heavy tail: nnz ~ max_row / u, clamped to [1, max_row].
    const double u = std::max(rng.uniform(), 1.0 / static_cast<double>(max_row));
    const std::size_t nnz = std::max<std::size_t>(
        1, std::min<std::size_t>(max_row, static_cast<std::size_t>(1.0 / u)));
    // Sorted random column subset (partial Fisher-Yates, no duplicates).
    for (std::size_t t = 0; t < nnz; ++t) {
      const std::size_t r = t + rng.uniform_int(0, cols - 1 - t);
      std::swap(pick[t], pick[r]);
    }
    std::sort(pick.begin(), pick.begin() + static_cast<long>(nnz));
    for (std::size_t t = 0; t < nnz; ++t) {
      m.values.push_back(rng.uniform(-1.0, 1.0));
      m.col_idx.push_back(pick[t]);
    }
    m.row_ptr.push_back(m.values.size());
  }
  return m;
}

}  // namespace xd::blas2
