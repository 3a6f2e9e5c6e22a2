#include "mem/memory.hpp"

#include <algorithm>

namespace xd::mem {

WordMemory::WordMemory(std::size_t words, std::string name)
    : words_(words), name_(std::move(name)) {}

void WordMemory::check(std::size_t addr) const {
  if (addr >= words_) {
    throw SimError(cat("out-of-bounds access to ", name_, ": addr ", addr, " of ",
                       words_, " words"));
  }
}

void WordMemory::allocate() {
  if (data_.empty()) data_.assign(words_, 0);
}

u64 WordMemory::read(std::size_t addr) {
  check(addr);
  ++reads_;
  return data_.empty() ? 0 : data_[addr];
}

void WordMemory::write(std::size_t addr, u64 value) {
  check(addr);
  ++writes_;
  allocate();
  data_[addr] = value;
}

void WordMemory::load(std::size_t addr, const std::vector<u64>& data) {
  require(addr + data.size() <= words_,
          cat("load overruns ", name_, ": ", addr, "+", data.size(), " > ",
              words_));
  allocate();
  std::copy(data.begin(), data.end(), data_.begin() + static_cast<long>(addr));
}

std::vector<u64> WordMemory::dump(std::size_t addr, std::size_t count) const {
  require(addr + count <= words_,
          cat("dump overruns ", name_, ": ", addr, "+", count, " > ", words_));
  if (data_.empty()) return std::vector<u64>(count, 0);
  return {data_.begin() + static_cast<long>(addr),
          data_.begin() + static_cast<long>(addr + count)};
}

void WordMemory::fill(u64 value) {
  allocate();
  std::fill(data_.begin(), data_.end(), value);
}

}  // namespace xd::mem
