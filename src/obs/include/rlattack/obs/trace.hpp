// Event-tracing layer: timeline traces alongside the MetricsRegistry
// aggregates.
//
// Where metrics.hpp answers "how much / how long in total", this layer
// answers "when": every instrumented site drops complete events (begin
// time and duration folded into one slot, Chrome phase "X") into
// per-thread lock-free ring buffers, and the process-exit hook
// exports them as Chrome trace-event JSON that loads directly in
// chrome://tracing and Perfetto (ui.perfetto.dev).
//
// Design rules (same discipline as MetricsRegistry):
//  - Off by default, one relaxed bool load when off. RLATTACK_TRACE=1 (or
//    set_trace_enabled) turns recording on; RLATTACK_TRACE_OUT / --trace-out
//    set the export path (and imply enabling when RLATTACK_TRACE is unset).
//    A disabled TraceScope takes no clock reading and writes nothing, so
//    experiment rows stay bit-identical with tracing on or off — tracing
//    only observes, it never feeds back.
//  - Per-thread ring buffers. kRings fixed-capacity rings of alignas(64)
//    64-byte slots; the emitting thread picks ring
//    util::ThreadPool::thread_index() & (kRings - 1) and claims a slot with
//    one relaxed fetch_add — no lock anywhere on the emit path.
//  - Overwrite-oldest drop policy. A ring that wraps silently overwrites
//    its oldest events (the interesting tail of a run is the recent past);
//    the exporter reports the total overwritten count so a truncated
//    timeline is always visible as such.
//  - Static-string payload. Event names and arg keys must be string
//    literals (or otherwise outlive the process): slots store the pointers,
//    never copies, which is what keeps a slot one cache line.
//
// Naming follows the metrics scheme (DESIGN.md "Tracing & forensics"):
// pool.job / pool.drain, episodes.dispatch, episode.run / episode.job,
// phase.*, eval.submit_wait / craft.submit_wait (an episode fiber's park),
// eval.batch.flush / craft.flush, nn.gemm.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rlattack::obs {

namespace trace_detail {
/// Process-wide tracing flag. Inline so every emit helper compiles to
/// "load + branch" with no function call on the disabled path.
inline std::atomic<bool> g_trace_enabled{false};
// Acquire pairs with the release store in set_trace_enabled so the global
// log's lazily-allocated rings are visible before the flag reads true; on
// x86 this compiles to the same plain load as relaxed, so the disabled
// path still costs one ordinary load.
inline bool trace_on() noexcept {
  return g_trace_enabled.load(std::memory_order_acquire);
}

/// Monotonic nanoseconds (steady_clock). Tests inject a scripted clock via
/// set_clock_for_testing so the JSON golden is byte-exact.
using ClockFn = std::uint64_t (*)() noexcept;
std::uint64_t now_ns() noexcept;
void set_clock_for_testing(ClockFn fn) noexcept;  ///< nullptr restores
}  // namespace trace_detail

/// True when trace events record (default off; RLATTACK_TRACE=1 enables at
/// startup, --trace-out / RLATTACK_TRACE_OUT imply it).
bool trace_enabled() noexcept;
void set_trace_enabled(bool on) noexcept;

/// One recorded complete event: exactly one cache line, so two threads'
/// slots never false-share and a ring is a flat alignas(64) array.
/// `name`/`arg_key` point at static strings.
struct alignas(64) TraceEvent {
  const char* name = nullptr;  ///< nullptr marks a never-written slot
  std::uint64_t ts_ns = 0;     ///< monotonic begin time
  std::uint64_t dur_ns = 0;
  const char* arg_key[2] = {nullptr, nullptr};
  double arg_val[2] = {0.0, 0.0};
  std::uint32_t tid = 0;  ///< util::ThreadPool::thread_index of the emitter
};
static_assert(sizeof(TraceEvent) == 64, "TraceEvent must stay one cache line");

/// Fixed-capacity overwrite-oldest event ring. Writers claim slots with one
/// relaxed fetch_add, so concurrent emitters (>kRings threads hashing onto
/// one ring) interleave without locks; the reader (export/snapshot) is only
/// exact when emitters are quiescent, which the process-exit hook and the
/// tests guarantee.
class TraceRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t capacity);

  /// Moves exist only so TraceLog can build its ring vector; they are never
  /// used while emitters are live (the atomic head is copied relaxed).
  TraceRing(TraceRing&& other) noexcept
      : slots_(std::move(other.slots_)),
        mask_(other.mask_),
        head_(other.head_.load(std::memory_order_relaxed)) {}
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void emit(const TraceEvent& ev) noexcept {
    const std::uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed);
    slots_[static_cast<std::size_t>(slot) & mask_] = ev;
  }

  std::size_t capacity() const noexcept { return slots_.size(); }
  /// Total events ever emitted (≥ retained once the ring wrapped).
  std::uint64_t emitted() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by wraparound.
  std::uint64_t dropped() const noexcept;
  /// Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;
  void reset() noexcept;

 private:
  std::vector<TraceEvent> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

/// A set of per-thread rings plus the Chrome-JSON exporter. `global()` is
/// the process-wide log every helper below records into; local instances
/// exist for the exporter golden test.
class TraceLog {
 public:
  /// Rings in a log; emitters map via thread_index() & (kRings - 1).
  static constexpr std::size_t kRings = 32;
  /// Per-ring slot count (64 KiB of slots per ring at 64 B each).
  static constexpr std::size_t kDefaultRingCapacity = 1024;

  explicit TraceLog(std::size_t ring_capacity = kDefaultRingCapacity);
  TraceLog(const TraceLog&) = delete;
  TraceLog& operator=(const TraceLog&) = delete;

  /// Tag for the global log: ring storage (kRings * capacity * 64 B) is not
  /// allocated until ensure_rings(), so a process that never enables tracing
  /// keeps exactly the heap layout it would have without the tracer — GEMM
  /// throughput is sensitive to allocation-address shifts at that scale.
  struct DeferRingsTag {};
  TraceLog(std::size_t ring_capacity, DeferRingsTag);

  /// Process-wide log. First use applies RLATTACK_TRACE / RLATTACK_TRACE_OUT
  /// and installs the ThreadPool trace hooks.
  static TraceLog& global();

  /// Allocates deferred ring storage (no-op once allocated). Must
  /// happen-before any emit: set_trace_enabled(true) calls it before
  /// publishing the enabled flag with a release store.
  void ensure_rings();

  /// Records `ev` into the ring selected by ev.tid (the helpers below stamp
  /// the calling thread's index). No enabled-flag check here — callers gate.
  void emit(const TraceEvent& ev) noexcept {
    if (rings_.empty()) return;  // deferred log that was never enabled
    rings_[static_cast<std::size_t>(ev.tid) & (kRings - 1)].emit(ev);
  }

  /// Merged retained events, sorted by (ts, tid, name, dur) so the output
  /// is deterministic for a scripted sequence.
  std::vector<TraceEvent> events() const;
  /// Total events overwritten across all rings.
  std::uint64_t dropped() const noexcept;
  void reset() noexcept;

  /// Chrome trace-event JSON ("traceEvents" array of "ph": "X" events,
  /// ts/dur in microseconds, timestamps rebased to the earliest retained
  /// event). Loads in chrome://tracing and Perfetto unchanged.
  std::string to_json(const std::string& binary) const;
  /// Writes to_json to `path`; false on I/O failure.
  bool write_json(const std::string& path, const std::string& binary) const;

 private:
  std::vector<TraceRing> rings_;
  std::size_t ring_capacity_;
};

/// RAII complete-event scope around the global log — the only emitter
/// besides the ThreadPool hooks. A nullptr name or disabled tracing makes
/// the scope fully inert: no clock reading, nothing recorded — the one
/// relaxed enabled load is the entire disabled-path cost.
class TraceScope {
 public:
  explicit TraceScope(const char* name) noexcept;
  TraceScope(const char* name, const char* k1, double v1) noexcept;
  TraceScope(const char* name, const char* k1, double v1, const char* k2,
             double v2) noexcept;
  ~TraceScope() { stop(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Emits now instead of at scope exit; idempotent.
  void stop() noexcept;

 private:
  TraceEvent ev_;  ///< ev_.name == nullptr when inert
};

/// Configures the process-exit trace export: on normal exit the global log
/// is written as Chrome trace JSON to `path` (empty disables). Bench
/// binaries and rlattack_cli wire --trace-out here; RLATTACK_TRACE_OUT is
/// applied at TraceLog::global() construction.
void set_trace_path(const std::string& path);
std::string trace_path();

}  // namespace rlattack::obs
