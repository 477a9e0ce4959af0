// Persistent worker-thread pool with a parallel_for primitive, shared by the
// NN compute kernels (GEMM row blocks, conv batch items, elementwise loops).
//
// Determinism contract:
//  - Chunk boundaries handed to `parallel_for_chunks` depend only on (n,
//    grain), never on the worker count, so chunk-indexed accumulator schemes
//    (reduce in chunk order after the join) are bit-stable across any
//    RLATTACK_THREADS setting.
//  - `parallel_for` chunks may depend on the worker count; callers must only
//    write disjoint outputs (no cross-chunk reductions) from it.
//  - With 1 thread every loop runs inline on the calling thread: fully
//    serial, no pool machinery, bit-identical to a build without the pool.
//
// Worker count resolution (first use of `global()`):
//    RLATTACK_THREADS env var if set to a positive integer, otherwise
//    std::thread::hardware_concurrency(), clamped to >= 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace rlattack::util {

class Fiber;

class ThreadPool {
 public:
  /// Pool with `threads` total workers (including the calling thread, which
  /// participates in every loop). `threads == 1` spawns no OS threads.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool used by the NN kernels. Created on first use from
  /// RLATTACK_THREADS / hardware_concurrency.
  static ThreadPool& global();

  /// Rebuilds the global pool with an explicit worker count (0 = re-resolve
  /// from the environment). For tests and benchmarks that compare thread
  /// counts in one process; not safe while a parallel_for is in flight.
  static void reset_global(std::size_t threads);

  /// Total workers, including the calling thread.
  std::size_t size() const noexcept { return threads_; }

  /// Splits [0, n) into contiguous ascending chunks of at least `grain`
  /// indices and invokes fn(begin, end) for each, possibly concurrently.
  /// Blocks until every chunk completed; rethrows the first exception.
  /// Chunk boundaries may depend on the worker count, so fn must only write
  /// disjoint per-index outputs. Nested calls from inside a worker run
  /// inline (serial) to avoid deadlock.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// As parallel_for, but fn also receives the chunk index, and the chunk
  /// layout depends only on (n, grain): chunk c covers
  /// [c * grain, min(n, (c + 1) * grain)). Returns the chunk count (also
  /// available up front via chunk_count). Use for deterministic reductions:
  /// accumulate per chunk, then reduce in chunk order on the caller.
  std::size_t parallel_for_chunks(
      std::size_t n, std::size_t grain,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& fn);

  /// Number of chunks parallel_for_chunks will produce for (n, grain).
  static std::size_t chunk_count(std::size_t n, std::size_t grain) noexcept {
    if (n == 0) return 0;
    if (grain == 0) grain = 1;
    return (n + grain - 1) / grain;
  }

  /// Small dense per-thread index: the first thread that asks (normally the
  /// main thread) gets 0, every subsequent distinct thread the next integer.
  /// Stable for the thread's lifetime; independent of pool membership. The
  /// telemetry layer (rlattack::obs) keys its per-thread recording slots on
  /// this, which is why it lives here rather than on std::this_thread: pool
  /// workers and the submitting thread all get compact indices.
  static std::size_t thread_index() noexcept;

  /// True when the calling thread is currently executing a parallel_for
  /// chunk (a pool worker, or the submitting thread while it helps drain).
  /// Any parallel_for issued in this state runs caller-inline — the
  /// nested-parallelism rule that lets Conv2D's per-item forward and
  /// backward loops call sgemm from inside their pool chunks without
  /// deadlock or oversubscription.
  static bool inside_worker() noexcept;

  /// Timeline-tracing hooks. util cannot depend on obs, so the tracing
  /// layer (rlattack::obs::trace) installs these function pointers at
  /// startup; when tracing is off `begin` returns 0 after one relaxed load
  /// and `end` is never called, so the pool pays nothing. `begin` runs
  /// before a job dispatch / worker drain, `end` after it with the matching
  /// begin timestamp and two numeric args (chunk count, worker count).
  struct TraceHooks {
    std::uint64_t (*begin)() noexcept = nullptr;
    void (*end)(const char* name, std::uint64_t begin_ns, double chunks,
                double workers) noexcept = nullptr;
  };
  static void set_trace_hooks(TraceHooks hooks) noexcept;

 private:
  // A fiber switch installs the running fiber's index (fiber.hpp).
  friend class Fiber;
  /// Installs `index` as the calling thread's index and returns the
  /// previous one; size_t(-1) means unassigned, so the next thread_index()
  /// takes a fresh index.
  static std::size_t exchange_thread_index(std::size_t index) noexcept;

  struct Impl;
  void run_chunked(std::size_t nchunks,
                   const std::function<void(std::size_t)>& chunk_fn);

  std::size_t threads_;
  std::unique_ptr<Impl> impl_;  // null when threads_ == 1
};

}  // namespace rlattack::util
