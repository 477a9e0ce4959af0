#include "rlattack/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "rlattack/util/env.hpp"
#include "rlattack/util/thread_safety.hpp"

namespace rlattack::util {

namespace {

// True on pool worker threads; nested parallel loops run inline instead of
// re-entering the dispatch machinery (which would deadlock on the join).
thread_local bool tls_inside_worker = false;

// Dense per-thread index, assigned lazily on first ThreadPool::thread_index
// call from each thread.
std::atomic<std::size_t> g_next_thread_index{0};
thread_local std::size_t tls_thread_index = static_cast<std::size_t>(-1);

// Trace hooks installed by rlattack::obs (TraceLog::global construction).
// Stored as individual relaxed atomics: torn installs are impossible (each
// pointer flips nullptr -> value exactly once) and the emit path stays a
// pair of relaxed loads.
std::atomic<std::uint64_t (*)() noexcept> g_trace_begin{nullptr};
std::atomic<void (*)(const char*, std::uint64_t, double, double) noexcept>
    g_trace_end{nullptr};

std::uint64_t pool_trace_begin() noexcept {
  const auto fn = g_trace_begin.load(std::memory_order_relaxed);
  return fn ? fn() : 0;
}

void pool_trace_end(const char* name, std::uint64_t begin_ns, double chunks,
                    double workers) noexcept {
  if (begin_ns == 0) return;  // tracing was off at begin: keep the pair inert
  if (const auto fn = g_trace_end.load(std::memory_order_relaxed))
    fn(name, begin_ns, chunks, workers);
}

std::size_t resolve_thread_count() {
  if (const std::optional<long> v = env::get_long(env::Var::kThreads);
      v && *v > 0)
    return static_cast<std::size_t>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

// One synchronous parallel loop. Owns its chunk counters so a worker that
// wakes late and still holds a pointer to a finished job can only observe an
// exhausted counter — it can never consume chunks of a newer job.
struct Job {
  std::function<void(std::size_t)> fn;
  std::size_t nchunks = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  Mutex error_mutex;
  std::exception_ptr first_error RLATTACK_GUARDED_BY(error_mutex);

  // Pulls chunks until exhausted; runs on workers and the submitter alike.
  void drain() RLATTACK_EXCLUDES(error_mutex) {
    for (;;) {
      const std::size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= nchunks) return;
      try {
        fn(chunk);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  // Only meaningful after the join (every chunk done): no concurrent writer
  // remains, but the analysis still wants the lock — take it, it is free.
  std::exception_ptr take_error() RLATTACK_EXCLUDES(error_mutex) {
    MutexLock lock(error_mutex);
    return first_error;
  }
};

}  // namespace

struct ThreadPool::Impl {
  explicit Impl(std::size_t extra_workers) {
    workers.reserve(extra_workers);
    for (std::size_t i = 0; i < extra_workers; ++i)
      workers.emplace_back([this] { worker_loop(); });
  }

  ~Impl() {
    {
      MutexLock lock(mutex);
      stopping = true;
    }
    wake.notify_all();
    for (std::thread& t : workers) t.join();
  }

  void worker_loop() RLATTACK_EXCLUDES(mutex) {
    tls_inside_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        MutexLock lock(mutex);
        // Explicit wait loop (not a predicate lambda): `stopping` and
        // `generation` are guarded reads and must stay in this annotated
        // scope, where the analysis can see the capability is held.
        while (!stopping && generation == seen) wake.wait(lock.native_lock());
        if (stopping) return;
        seen = generation;
        job = current;
      }
      if (job) {
        const std::uint64_t t0 = pool_trace_begin();
        job->drain();
        pool_trace_end("pool.drain", t0,
                       static_cast<double>(job->nchunks), 0.0);
      }
    }
  }

  // Runs one job to completion, helping from the calling thread.
  void run(const std::shared_ptr<Job>& job) RLATTACK_EXCLUDES(mutex) {
    {
      MutexLock lock(mutex);
      current = job;
      ++generation;
    }
    wake.notify_all();
    // The submitting thread helps; flag it as "inside" so a nested
    // parallel_for from chunk code (e.g. sgemm under a batch-parallel conv)
    // runs inline instead of re-entering dispatch and deadlocking.
    const bool prev_inside = tls_inside_worker;
    tls_inside_worker = true;
    job->drain();
    tls_inside_worker = prev_inside;
    // The counter is exhausted, but other workers may still be inside fn.
    while (job->done.load(std::memory_order_acquire) < job->nchunks)
      std::this_thread::yield();
    {
      MutexLock lock(mutex);
      current.reset();
    }
  }

  std::vector<std::thread> workers;
  Mutex mutex;
  std::condition_variable wake;
  bool stopping RLATTACK_GUARDED_BY(mutex) = false;
  /// Job workers should drain; reset after the join.
  std::shared_ptr<Job> current RLATTACK_GUARDED_BY(mutex);
  /// Bumped per job so a worker can tell a new job from a spurious wake.
  std::uint64_t generation RLATTACK_GUARDED_BY(mutex) = 0;
};

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads == 0 ? 1 : threads) {
  if (threads_ > 1) impl_ = std::make_unique<Impl>(threads_ - 1);
}

ThreadPool::~ThreadPool() = default;

bool ThreadPool::inside_worker() noexcept { return tls_inside_worker; }

void ThreadPool::set_trace_hooks(TraceHooks hooks) noexcept {
  g_trace_begin.store(hooks.begin, std::memory_order_relaxed);
  g_trace_end.store(hooks.end, std::memory_order_relaxed);
}

std::size_t ThreadPool::thread_index() noexcept {
  if (tls_thread_index == static_cast<std::size_t>(-1))
    tls_thread_index =
        g_next_thread_index.fetch_add(1, std::memory_order_relaxed);
  return tls_thread_index;
}

std::size_t ThreadPool::exchange_thread_index(std::size_t index) noexcept {
  return std::exchange(tls_thread_index, index);
}

namespace {
Mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool RLATTACK_GUARDED_BY(g_global_mutex);
}  // namespace

ThreadPool& ThreadPool::global() {
  MutexLock lock(g_global_mutex);
  if (!g_global_pool)
    g_global_pool = std::make_unique<ThreadPool>(resolve_thread_count());
  return *g_global_pool;
}

void ThreadPool::reset_global(std::size_t threads) {
  MutexLock lock(g_global_mutex);
  g_global_pool = std::make_unique<ThreadPool>(
      threads == 0 ? resolve_thread_count() : threads);
}

void ThreadPool::run_chunked(std::size_t nchunks,
                             const std::function<void(std::size_t)>& chunk_fn) {
  if (nchunks == 0) return;
  // Serial pool, single chunk, or a nested call from inside a worker: run
  // inline. This is the deterministic RLATTACK_THREADS=1 path. Nested calls
  // stay untraced — a pool.job span per nested GEMM row block would swamp
  // the timeline; the enclosing job span already covers them.
  if (!impl_ || nchunks == 1 || tls_inside_worker) {
    const std::uint64_t t0 = tls_inside_worker ? 0 : pool_trace_begin();
    for (std::size_t c = 0; c < nchunks; ++c) chunk_fn(c);
    pool_trace_end("pool.job", t0, static_cast<double>(nchunks), 1.0);
    return;
  }
  // parallel_for is synchronous; serialize submitters defensively so two
  // threads cannot interleave job dispatch on one pool.
  static Mutex submit_mutex;
  MutexLock submit_lock(submit_mutex);
  auto job = std::make_shared<Job>();
  job->fn = chunk_fn;
  job->nchunks = nchunks;
  const std::uint64_t t0 = pool_trace_begin();
  impl_->run(job);
  pool_trace_end("pool.job", t0, static_cast<double>(nchunks),
                 static_cast<double>(threads_));
  if (std::exception_ptr error = job->take_error())
    std::rethrow_exception(error);
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  // Even static split over the workers, but never below `grain` per chunk.
  std::size_t chunks = std::min(threads_, (n + grain - 1) / grain);
  if (chunks == 0) chunks = 1;
  const std::size_t base = n / chunks, rem = n % chunks;
  run_chunked(chunks, [&](std::size_t c) {
    const std::size_t begin = c * base + std::min(c, rem);
    const std::size_t end = begin + base + (c < rem ? 1 : 0);
    if (begin < end) fn(begin, end);
  });
}

std::size_t ThreadPool::parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (grain == 0) grain = 1;
  const std::size_t chunks = chunk_count(n, grain);
  run_chunked(chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = std::min(n, begin + grain);
    fn(c, begin, end);
  });
  return chunks;
}

}  // namespace rlattack::util
