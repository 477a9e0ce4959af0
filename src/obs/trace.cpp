#include "rlattack/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "rlattack/obs/json_util.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/util/env.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::obs {

namespace trace_detail {

namespace {
std::atomic<ClockFn> g_clock{nullptr};
}  // namespace

std::uint64_t now_ns() noexcept {
  if (const ClockFn fn = g_clock.load(std::memory_order_relaxed)) return fn();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_clock_for_testing(ClockFn fn) noexcept {
  g_clock.store(fn, std::memory_order_relaxed);
}

}  // namespace trace_detail

bool trace_enabled() noexcept { return trace_detail::trace_on(); }

void set_trace_enabled(bool on) noexcept {
  TraceLog& log = TraceLog::global();  // export hook / pool hooks exist
  if (on) log.ensure_rings();  // happens-before the release store below
  trace_detail::g_trace_enabled.store(on, std::memory_order_release);
}

// --- TraceRing -------------------------------------------------------------

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

TraceRing::TraceRing(std::size_t capacity)
    : slots_(round_up_pow2(capacity < 2 ? 2 : capacity)),
      mask_(slots_.size() - 1) {}

std::uint64_t TraceRing::dropped() const noexcept {
  const std::uint64_t emitted = head_.load(std::memory_order_relaxed);
  const std::uint64_t cap = slots_.size();
  return emitted > cap ? emitted - cap : 0;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  const std::uint64_t emitted = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t count = emitted < cap ? emitted : cap;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(count));
  // Oldest retained event first: the ring wrapped (emitted - count) slots
  // ago, so slot (emitted - count) & mask_ holds the oldest survivor.
  for (std::uint64_t i = emitted - count; i < emitted; ++i)
    out.push_back(slots_[static_cast<std::size_t>(i) & mask_]);
  return out;
}

void TraceRing::reset() noexcept {
  for (TraceEvent& ev : slots_) ev = TraceEvent{};
  head_.store(0, std::memory_order_relaxed);
}

// --- TraceLog --------------------------------------------------------------

namespace {

// Export state mirrors metrics.cpp: leaked function-local statics so the
// atexit hook and late static destructors always see live objects.
std::mutex& trace_export_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::string& trace_path_storage() {
  static std::string* s = new std::string;
  return *s;
}

std::once_flag& trace_hook_once() {
  static std::once_flag* f = new std::once_flag;
  return *f;
}

void trace_export_at_exit() {
  const std::string path = trace_path();
  if (path.empty()) return;
  TraceLog::global().write_json(path, export_binary());
}

// ThreadPool trace hooks: the pool cannot depend on obs, so it calls these
// through function pointers installed at TraceLog::global() construction.
// `begin` is the entire disabled-path cost: one relaxed load, no clock.
std::uint64_t pool_trace_begin() noexcept {
  return trace_detail::trace_on() ? trace_detail::now_ns() : 0;
}

void pool_trace_end(const char* name, std::uint64_t begin_ns, double chunks,
                    double workers) noexcept {
  TraceEvent ev;
  ev.name = name;
  ev.ts_ns = begin_ns;
  const std::uint64_t end_ns = trace_detail::now_ns();
  ev.dur_ns = end_ns > begin_ns ? end_ns - begin_ns : 0;
  ev.arg_key[0] = "chunks";
  ev.arg_val[0] = chunks;
  ev.arg_key[1] = "workers";
  ev.arg_val[1] = workers;
  ev.tid = static_cast<std::uint32_t>(util::ThreadPool::thread_index());
  TraceLog::global().emit(ev);
}

}  // namespace

TraceLog::TraceLog(std::size_t ring_capacity) : ring_capacity_(ring_capacity) {
  ensure_rings();
}

TraceLog::TraceLog(std::size_t ring_capacity, DeferRingsTag)
    : ring_capacity_(ring_capacity) {}

void TraceLog::ensure_rings() {
  // Guards concurrent enable calls; emitters never reach the rings until a
  // release-store of the enabled flag has published the allocation.
  static std::mutex* mu = new std::mutex;
  std::lock_guard<std::mutex> lock(*mu);
  if (!rings_.empty()) return;
  rings_.reserve(kRings);
  for (std::size_t i = 0; i < kRings; ++i) rings_.emplace_back(ring_capacity_);
}

TraceLog& TraceLog::global() {
  // Leaked singleton (see MetricsRegistry::global): emitters may record
  // during static destruction, and the atexit export hook reads it last.
  static TraceLog* log = [] {
    auto* l = new TraceLog(kDefaultRingCapacity, DeferRingsTag{});
    bool enable = false;
    bool trace_var_set = false;
    if (const char* env = util::env::get(util::env::Var::kTrace)) {
      trace_var_set = *env != '\0';
      std::string v(env);
      std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
      });
      enable = trace_var_set && v != "off" && v != "0" && v != "false";
    }
    if (const char* out = util::env::get(util::env::Var::kTraceOut))
      if (*out != '\0') {
        set_trace_path(out);
        if (!trace_var_set) enable = true;  // an export path implies tracing
      }
    if (enable) {
      l->ensure_rings();
      trace_detail::g_trace_enabled.store(true, std::memory_order_release);
    }
    util::ThreadPool::set_trace_hooks({&pool_trace_begin, &pool_trace_end});
    return l;
  }();
  return *log;
}

std::vector<TraceEvent> TraceLog::events() const {
  std::vector<TraceEvent> all;
  for (const TraceRing& ring : rings_) {
    std::vector<TraceEvent> part = ring.snapshot();
    all.insert(all.end(), part.begin(), part.end());
  }
  // Deterministic order for a scripted sequence: emit time, then thread,
  // then name/duration as tie-breakers. The sort moves pointers, not
  // events: std::stable_sort's temporary buffer ignores alignas(64), so
  // sorting TraceEvents in place would construct them misaligned.
  std::vector<const TraceEvent*> order(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) order[i] = &all[i];
  std::stable_sort(order.begin(), order.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                     if (a->tid != b->tid) return a->tid < b->tid;
                     const int names = std::strcmp(a->name ? a->name : "",
                                                   b->name ? b->name : "");
                     if (names != 0) return names < 0;
                     return a->dur_ns < b->dur_ns;
                   });
  std::vector<TraceEvent> sorted;
  sorted.reserve(all.size());
  for (const TraceEvent* ev : order) sorted.push_back(*ev);
  return sorted;
}

std::uint64_t TraceLog::dropped() const noexcept {
  std::uint64_t total = 0;
  for (const TraceRing& ring : rings_) total += ring.dropped();
  return total;
}

void TraceLog::reset() noexcept {
  for (TraceRing& ring : rings_) ring.reset();
}

std::string TraceLog::to_json(const std::string& binary) const {
  const std::vector<TraceEvent> evs = events();
  // Rebase timestamps to the earliest retained event so the viewer opens at
  // t = 0 regardless of process uptime.
  std::uint64_t base = evs.empty() ? 0 : evs.front().ts_ns;
  for (const TraceEvent& ev : evs) base = std::min(base, ev.ts_ns);

  std::ostringstream out;
  out << "{\n";
  out << "  \"displayTimeUnit\": \"ms\",\n";
  out << "  \"otherData\": {\"binary\": \"" << detail::json_escape(binary)
      << "\", \"dropped\": " << dropped() << "},\n";
  out << "  \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : evs) {
    if (ev.name == nullptr) continue;
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << detail::json_escape(ev.name)
        << "\", \"cat\": \"rlattack\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << ev.tid << ", \"ts\": "
        << detail::fmt_double(static_cast<double>(ev.ts_ns - base) / 1000.0)
        << ", \"dur\": "
        << detail::fmt_double(static_cast<double>(ev.dur_ns) / 1000.0);
    if (ev.arg_key[0] != nullptr) {
      out << ", \"args\": {";
      for (int i = 0; i < 2; ++i) {
        if (ev.arg_key[i] == nullptr) continue;
        if (i > 0 && ev.arg_key[0] != nullptr && i == 1) out << ", ";
        out << "\"" << detail::json_escape(ev.arg_key[i])
            << "\": " << detail::fmt_double(ev.arg_val[i]);
      }
      out << "}";
    }
    out << "}";
  }
  if (!first) out << "\n  ";
  out << "]\n";
  out << "}\n";
  return out.str();
}

bool TraceLog::write_json(const std::string& path,
                          const std::string& binary) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json(binary);
  return static_cast<bool>(out);
}

// --- TraceScope ------------------------------------------------------------

TraceScope::TraceScope(const char* name) noexcept {
  if (name == nullptr || !trace_detail::trace_on()) return;
  ev_.name = name;
  ev_.ts_ns = trace_detail::now_ns();
}

TraceScope::TraceScope(const char* name, const char* k1, double v1) noexcept
    : TraceScope(name) {
  if (ev_.name == nullptr) return;
  ev_.arg_key[0] = k1;
  ev_.arg_val[0] = v1;
}

TraceScope::TraceScope(const char* name, const char* k1, double v1,
                       const char* k2, double v2) noexcept
    : TraceScope(name, k1, v1) {
  if (ev_.name == nullptr) return;
  ev_.arg_key[1] = k2;
  ev_.arg_val[1] = v2;
}

void TraceScope::stop() noexcept {
  if (ev_.name == nullptr) return;
  const std::uint64_t end_ns = trace_detail::now_ns();
  ev_.dur_ns = end_ns > ev_.ts_ns ? end_ns - ev_.ts_ns : 0;
  ev_.tid = static_cast<std::uint32_t>(util::ThreadPool::thread_index());
  TraceLog::global().emit(ev_);
  ev_.name = nullptr;
}

// --- export wiring ---------------------------------------------------------

void set_trace_path(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(trace_export_mutex());
    trace_path_storage() = path;
  }
  if (!path.empty())
    std::call_once(trace_hook_once(), [] { std::atexit(trace_export_at_exit); });
}

std::string trace_path() {
  std::lock_guard<std::mutex> lock(trace_export_mutex());
  return trace_path_storage();
}

namespace {
// Force TraceLog::global() construction at static-init time: every binary
// that links an instrumented TU also links this one (TraceScope lives
// here), so RLATTACK_TRACE=1 works without any code calling into tracing
// first.
const bool g_trace_boot = (TraceLog::global(), true);
}  // namespace

}  // namespace rlattack::obs
