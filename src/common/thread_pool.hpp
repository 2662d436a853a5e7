// A small thread pool with chunked range dispatch and atomic work-claiming.
//
// Used only inside tensor kernels (GEMM, attention, layer math) to make the
// CPU substrate fast enough for the in-situ benchmarks; the *worker* threads
// of the distributed fabric are separate (one std::thread per simulated rank)
// so kernel parallelism never interferes with schedule semantics.
//
// Dispatch model: a caller publishes one stack-allocated Dispatch record into
// a fixed-capacity slot arena (no per-task heap allocation, no per-chunk
// std::function), wakes the workers, and then participates in the same
// atomic chunk-claiming loop itself. Each claim grabs `chunk` consecutive
// indices with one fetch_add, so uneven per-index cost (e.g. causal attention
// rows) load-balances without a task queue. Multiple rank threads can
// dispatch concurrently — each occupies its own arena slot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.hpp"

namespace weipipe {

// Monotone dispatch counters since pool construction (relaxed atomics; exact
// under quiescence, approximate while kernels are in flight). `steals` counts
// chunks executed by pool workers rather than the dispatching thread — a
// caller-only dispatch (steals == 0) means the workers never got to the work
// before the caller finished it.
struct ThreadPoolStats {
  std::uint64_t dispatches = 0;  // parallel dispatches published to the arena
  std::uint64_t serial_runs = 0;  // calls that ran inline (tiny/nested/full)
  std::uint64_t items = 0;        // indices covered by published dispatches
  std::uint64_t chunks = 0;       // chunks claimed across all dispatches
  std::uint64_t steals = 0;       // chunks claimed by pool workers
};

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Type-erased range body: process the half-open index block [lo, hi).
  using RangeFn = void (*)(void* ctx, std::size_t lo, std::size_t hi);

  // Runs fn over [begin, end) in chunks of at least `grain` indices,
  // splitting across the pool and the calling thread; returns when every
  // index is done. Exceptions from fn propagate to the caller (first one
  // wins; once one chunk throws, unclaimed chunks are abandoned).
  void parallel_for_range(std::size_t begin, std::size_t end, RangeFn fn,
                          void* ctx, std::size_t grain);

  // Typed convenience over parallel_for_range; f is void(size_t lo, size_t hi).
  template <typename F>
  void for_range(std::size_t begin, std::size_t end, F&& f,
                 std::size_t grain = 1) {
    using Fn = std::remove_reference_t<F>;
    parallel_for_range(
        begin, end,
        [](void* ctx, std::size_t lo, std::size_t hi) {
          (*static_cast<Fn*>(ctx))(lo, hi);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(f))), grain);
  }

  ThreadPoolStats stats() const;

  // Process-wide pool sized to the hardware; lazily constructed.
  static ThreadPool& global();

 private:
  struct Dispatch;  // stack-allocated per call; defined in the .cpp

  // Concurrent dispatch capacity: one slot per simultaneously-dispatching
  // thread (rank threads + main). Overflow falls back to inline execution,
  // which is always correct.
  static constexpr std::size_t kMaxDispatches = 32;

  void worker_loop();
  // Claim-and-run loop shared by workers and the dispatching thread.
  void run_dispatch(Dispatch& d, bool is_worker);

  std::vector<std::thread> workers_;  // written only in ctor/dtor
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Dispatch* slots_[kMaxDispatches] WEIPIPE_GUARDED_BY(mu_) = {};
  bool stop_ WEIPIPE_GUARDED_BY(mu_) = false;

  // Stats (relaxed; see ThreadPoolStats).
  std::atomic<std::uint64_t> stat_dispatches_{0};
  std::atomic<std::uint64_t> stat_serial_runs_{0};
  std::atomic<std::uint64_t> stat_items_{0};
  std::atomic<std::uint64_t> stat_chunks_{0};
  std::atomic<std::uint64_t> stat_steals_{0};
};

// The parallel loop on the global pool: f(lo, hi) sees contiguous blocks of
// at least `grain` indices, so per-chunk setup (scratch buffers, partial
// reductions) amortizes and the inner loop stays vectorizable. Runs serially
// when the whole range fits inside one grain-sized chunk.
template <typename F>
void parallel_for_range(std::size_t begin, std::size_t end, std::size_t grain,
                        F&& f) {
  if (begin >= end) {
    return;
  }
  if (end - begin <= grain) {
    f(begin, end);
    return;
  }
  ThreadPool::global().for_range(begin, end, std::forward<F>(f), grain);
}

// Observability hook: when set, called on the dispatching thread after every
// ThreadPool::parallel_for_range with the range size and the dispatch
// interval in steady-clock nanoseconds. A raw function pointer (not
// std::function) so the disabled cost is one relaxed atomic load; installed
// by obs::Recorder when kernel spans are requested — common/ must not depend
// on obs/.
using KernelObserver = void (*)(std::size_t items, std::int64_t start_ns,
                                std::int64_t end_ns);
void set_kernel_observer(KernelObserver observer);  // nullptr disables

}  // namespace weipipe
