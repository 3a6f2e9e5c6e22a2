// Minimal shared-memory parallel-for for the host side of the simulator.
//
// Its users are embarrassingly parallel: the GEMM engines' numerics (one
// fp::Backend::gemm_rows call per contiguous block of C rows), schedule
// replay's blocks of sets and Runtime::run_parallel's ops (the shard
// scheduler's pieces). This helper fans a range across a ThreadPool (the
// process-wide one unless the caller names another) with static chunking.
// Determinism is preserved: every index computes the same value regardless
// of the thread that runs it, and results land in caller-owned slots with
// no shared mutable state.
//
// The callable is a template parameter (not std::function), so the hot
// per-index call inlines; and workers come from a standing pool, so a loop
// no longer pays a thread spawn + join per call (bench_sim_throughput's
// BM_ParallelFor* pair measures the difference).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>

#include "common/thread_pool.hpp"

namespace xd {

/// Invoke fn(i) for i in [begin, end) across up to `workers` threads
/// (static contiguous chunks) of `pool` and the caller. fn must be safe to
/// call concurrently for distinct i; workers = 1 runs inline. An exception thrown by fn ends its
/// chunk; the first one is rethrown on the caller once every claimed chunk
/// has finished (the other chunks still run).
///
/// The calling thread claims chunks alongside the pool workers, so the
/// helper is deadlock-free even when called from inside a pool task with
/// every worker busy — the caller simply runs the whole range itself.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn,
                  unsigned workers = default_workers(),
                  ThreadPool& pool = ThreadPool::shared()) {
  const std::size_t count = end > begin ? end - begin : 0;
  if (count == 0) return;
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers == 0 ? 1 : workers, count));
  if (workers <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  // Same static chunking as ever: ceil(count / workers) indices per chunk.
  const std::size_t chunk = (count + workers - 1) / workers;
  const std::size_t nchunks = (count + chunk - 1) / chunk;

  // Chunk tickets live in shared state so pool workers and the caller can
  // claim them with one fetch_add; the state is heap-held (shared_ptr) so a
  // late-waking helper that claims nothing can still touch `next` safely
  // after the caller returned. fn itself is only reached through claimed
  // tickets, and the caller waits for every claimed ticket to finish.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  ///< the first exception fn threw; under mu
  };
  auto state = std::make_shared<State>();

  auto drain = [state, begin, end, chunk, nchunks, &fn] {
    for (;;) {
      const std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) return;
      const std::size_t lo = begin + c * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  // Helpers may reference fn (a stack object), which is only valid until
  // this call returns — safe, because ticket claims after completion are
  // no-ops and the caller does not return before `done == nchunks`.
  const unsigned helpers = static_cast<unsigned>(
      std::min<std::size_t>(pool.size(), nchunks - 1));
  for (unsigned h = 0; h < helpers; ++h) pool.post(drain);

  drain();  // the caller participates — never blocks waiting for a worker

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == nchunks;
  });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace xd
