#include "sim/scratch.hpp"

#include <memory>

namespace xd::sim {

namespace {

/// Scaffolds cached per thread. The key holds geometry, not the engine, so
/// the realistic working set is a few distinct plan geometries shared by
/// every tree engine on the thread; a workload cycling through
/// more than kCacheCap geometries on one thread falls back to
/// construct-per-run for the overflow, never unbounded memory.
constexpr std::size_t kCacheCap = 8;

/// Staging vectors above this many words are dropped at release: a single
/// huge GEMV must not pin its operand panel inside the cache forever.
constexpr std::size_t kKeepWords = 1u << 17;  // 128 Ki words = 1 MiB

thread_local std::vector<std::unique_ptr<TreeScratch>> t_cache;

}  // namespace

TreeScratch::TreeScratch(const Key& k)
    : key(k),
      tree(k.k, k.adder_stages),
      red(k.adder_stages),
      mults(k.k, k.multiplier_stages),
      red_fifo(k.fifo_cap) {}

void TreeScratch::reset() {
  tree.reset();
  red.reset_for_reuse();
  mults.reset();
  red_fifo.clear();
}

TreeScratchLease::TreeScratchLease(const TreeScratch::Key& key) {
  for (auto& entry : t_cache) {
    if (!entry->in_use && entry->key == key) {
      entry->in_use = true;
      entry->reset();
      scratch_ = entry.get();
      owned_ = false;
      return;
    }
  }
  auto fresh = std::make_unique<TreeScratch>(key);
  fresh->in_use = true;
  scratch_ = fresh.get();
  if (t_cache.size() < kCacheCap) {
    t_cache.push_back(std::move(fresh));
    owned_ = false;
  } else {
    fresh.release();
    owned_ = true;
  }
}

TreeScratchLease::~TreeScratchLease() {
  if (owned_) {
    delete scratch_;
    return;
  }
  if (scratch_->abits.capacity() > kKeepWords) {
    scratch_->abits = std::vector<u64>();
  }
  if (scratch_->xbits.capacity() > kKeepWords) {
    scratch_->xbits = std::vector<u64>();
  }
  scratch_->in_use = false;
}

}  // namespace xd::sim
