// Recycled per-thread simulation scaffolds for the tree-reduction engines.
//
// The dot, tree-GEMV, SpMXV and on-node GEMV engines share one hardware
// scaffold, driven by sim::run_mac_reduce: a multiplier bank feeding an
// adder tree, a small FIFO, and the reduction circuit. Constructing that scaffold inside every run() costs ~60 heap
// allocations (the reduction circuit alone owns 2*alpha row buffers of
// alpha words each) — for a tiny op that construction dominated the whole
// execution. This pool keeps a few fully-constructed scaffolds per thread
// and hands them out reset-for-reuse, so the steady-state small-op path
// allocates only its Outcome.
//
// A scaffold is reusable only for a matching geometry (k, pipeline depths,
// FIFO capacity) AND the same active FP backend: the tree and the
// circuit's adder capture the backend's arithmetic at construction, so a
// ScopedBackend switch (the fuzz harness's backend-equivalence runs) must
// never see a scaffold built under the other backend. The backend address
// is part of the key; a mismatch builds fresh.
//
// Acquisition is a lease: engines hold the scaffold for exactly one run()
// (no suspension points), so per-thread caching is safe — a thread runs
// one engine at a time, and the blocked-GEMV / graph paths that run several
// engines do so sequentially. Re-entrant acquisition (never happens today)
// would simply construct an uncached scaffold.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/ring_fifo.hpp"
#include "fp/fpu.hpp"
#include "reduce/reduction_circuit.hpp"

namespace xd::sim {

/// The shared scaffold: everything allocation-heavy a tree-reduction engine
/// needs per run, plus two reusable staging vectors (operand bit panels).
struct TreeScratch {
  struct Key {
    unsigned k = 0;
    unsigned adder_stages = 0;
    unsigned multiplier_stages = 0;
    std::size_t fifo_cap = 0;
    const fp::Backend* backend = nullptr;
    bool operator==(const Key&) const = default;
  };

  TreeScratch(const Key& key);

  Key key;
  fp::AdderTree tree;
  reduce::ReductionCircuit red;
  fp::MultiplierBank mults;
  RingFifo<std::pair<u64, bool>> red_fifo;
  std::vector<u64> abits;  ///< reusable operand-bits staging; replay inputs
  std::vector<u64> xbits;
  std::vector<u64> regs;  ///< schedule replay: one register file per block
  bool in_use = false;

  /// All components back to the just-constructed state (storage kept).
  void reset();
};

/// Lease on a TreeScratch: from the calling thread's cache when a matching
/// scaffold is free (reset before handout), freshly constructed otherwise.
/// Returned to the cache — or destroyed, for the uncached overflow case —
/// when the lease goes out of scope.
class TreeScratchLease {
 public:
  explicit TreeScratchLease(const TreeScratch::Key& key);
  ~TreeScratchLease();
  TreeScratchLease(const TreeScratchLease&) = delete;
  TreeScratchLease& operator=(const TreeScratchLease&) = delete;

  TreeScratch& operator*() { return *scratch_; }
  TreeScratch* operator->() { return scratch_; }

 private:
  TreeScratch* scratch_;
  bool owned_;  ///< true: constructed outside the cache, freed on release
};

}  // namespace xd::sim
