// Word-addressable memory with traffic accounting.
//
// All data in the simulated designs moves as 64-bit words (the paper's
// designs are 64-bit floating-point throughout; XD1 SRAM banks are 64-bit
// wide plus parity). WordMemory is the storage model shared by BRAM, SRAM
// and DRAM levels; the levels differ in capacity and in the port/bandwidth
// models wrapped around them (sram_bank.hpp, dram.hpp).
//
// Storage is allocated on the first write, load or fill; until then the
// memory reads as zeros. A machine::System of 72 nodes describes ~5.6 GiB
// of SRAM and DRAM, so a model that never touches most of it must not pay
// for zeroing it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/util.hpp"

namespace xd::mem {

class WordMemory {
 public:
  /// `words` is the capacity; `name` appears in error messages and reports.
  /// Allocates nothing until the memory is first written.
  WordMemory(std::size_t words, std::string name);

  u64 read(std::size_t addr);
  void write(std::size_t addr, u64 value);

  /// Bulk host-side initialization/readout (not counted as device traffic —
  /// models the host writing the memory before the FPGA design starts).
  void load(std::size_t addr, const std::vector<u64>& data);
  std::vector<u64> dump(std::size_t addr, std::size_t count) const;
  void fill(u64 value);

  std::size_t words() const { return words_; }
  std::size_t bytes() const { return words_ * kWordBytes; }
  /// Whether storage has been allocated (first write, load or fill).
  bool allocated() const { return !data_.empty(); }
  const std::string& name() const { return name_; }

  u64 words_read() const { return reads_; }
  u64 words_written() const { return writes_; }
  u64 total_traffic_words() const { return reads_ + writes_; }
  void reset_counters() { reads_ = writes_ = 0; }

 private:
  void check(std::size_t addr) const;
  void allocate();

  std::size_t words_;
  std::vector<u64> data_;  ///< empty until first written, then words_ long
  std::string name_;
  u64 reads_ = 0;
  u64 writes_ = 0;
};

}  // namespace xd::mem
