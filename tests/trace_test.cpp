// Event-tracing layer contract: ring wraparound/overwrite-oldest, the
// byte-exact Chrome-JSON exporter, disabled-path inertness (no clock
// reading, nothing recorded) and concurrent emitters under the shared
// thread pool. Suites are named Trace* so run_checks.sh's TSan filter
// picks up the concurrency cases.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "rlattack/obs/forensics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::obs {
namespace {

/// Restores the process-wide tracing flag and the real clock on scope exit
/// so tests cannot leak scripted state into later tests.
class TraceGuard {
 public:
  TraceGuard() : saved_(trace_enabled()) {}
  ~TraceGuard() {
    trace_detail::set_clock_for_testing(nullptr);
    set_trace_enabled(saved_);
  }

 private:
  bool saved_;
};

std::atomic<std::uint64_t> g_clock_calls{0};

std::uint64_t counting_clock() noexcept {
  return 1000 * (1 + g_clock_calls.fetch_add(1, std::memory_order_relaxed));
}

TraceEvent make_event(const char* name, std::uint64_t ts_ns,
                      std::uint32_t tid, std::uint64_t dur_ns = 0) {
  TraceEvent ev;
  ev.name = name;
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.tid = tid;
  return ev;
}

TEST(TraceRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(TraceRing(0).capacity(), 2u);
  EXPECT_EQ(TraceRing(2).capacity(), 2u);
  EXPECT_EQ(TraceRing(3).capacity(), 4u);
  EXPECT_EQ(TraceRing(1000).capacity(), 1024u);
}

TEST(TraceRingTest, SnapshotBeforeWrapKeepsEverythingInOrder) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 3; ++i)
    ring.emit(make_event("e", i, 0));
  EXPECT_EQ(ring.emitted(), 3u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(events[i].ts_ns, i + 1);
}

TEST(TraceRingTest, WraparoundOverwritesOldest) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 6; ++i)
    ring.emit(make_event("e", i, 0));
  EXPECT_EQ(ring.emitted(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);  // events ts=1,2 were overwritten
  const std::vector<TraceEvent> events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i)
    EXPECT_EQ(events[i].ts_ns, i + 3);  // oldest survivor first: 3,4,5,6
}

TEST(TraceRingTest, ResetForgetsHistory) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 9; ++i)
    ring.emit(make_event("e", i, 0));
  ring.reset();
  EXPECT_EQ(ring.emitted(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

// Exporter golden on a local log with manually-stamped events: timestamps
// rebase to the earliest event, events sort by (ts, tid, name), every event
// is a complete ("X") event with a dur, and args appear exactly when the
// payload carries them.
TEST(TraceJsonTest, ExportsDeterministicGoldenJson) {
  TraceLog log(/*ring_capacity=*/8);

  TraceEvent run = make_event("episode.run", 2000, 0, 4000);
  run.arg_key[0] = "seed";
  run.arg_val[0] = 7.0;
  log.emit(run);

  TraceEvent perturb = make_event("phase.perturb", 3000, 1, 1500);
  perturb.arg_key[0] = "position";
  perturb.arg_val[0] = 1.0;
  perturb.arg_key[1] = "eps";
  perturb.arg_val[1] = 0.5;
  log.emit(perturb);

  TraceEvent flush = make_event("eval.batch.flush", 2500, 2, 250);
  flush.arg_key[0] = "rows";
  flush.arg_val[0] = 9.0;
  log.emit(flush);

  log.emit(make_event("sync", 2000, 1));

  const std::string expected =
      "{\n"
      "  \"displayTimeUnit\": \"ms\",\n"
      "  \"otherData\": {\"binary\": \"golden\", \"dropped\": 0},\n"
      "  \"traceEvents\": [\n"
      "    {\"name\": \"episode.run\", \"cat\": \"rlattack\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 0, \"ts\": 0, \"dur\": 4, "
      "\"args\": {\"seed\": 7}},\n"
      "    {\"name\": \"sync\", \"cat\": \"rlattack\", \"ph\": \"X\", "
      "\"pid\": 1, \"tid\": 1, \"ts\": 0, \"dur\": 0},\n"
      "    {\"name\": \"eval.batch.flush\", \"cat\": \"rlattack\", "
      "\"ph\": \"X\", \"pid\": 1, \"tid\": 2, \"ts\": 0.5, \"dur\": 0.25, "
      "\"args\": {\"rows\": 9}},\n"
      "    {\"name\": \"phase.perturb\", \"cat\": \"rlattack\", "
      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1, \"dur\": 1.5, "
      "\"args\": {\"position\": 1, \"eps\": 0.5}}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(log.to_json("golden"), expected);
}

TEST(TraceJsonTest, EmptyLogStillProducesValidShape) {
  TraceLog log(/*ring_capacity=*/2);
  const std::string json = log.to_json("empty");
  EXPECT_NE(json.find("\"traceEvents\": []"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

TEST(TraceJsonTest, DroppedCountSurfacesInOtherData) {
  TraceLog log(/*ring_capacity=*/2);
  for (std::uint64_t i = 1; i <= 5; ++i)
    log.emit(make_event("e", i, 0));
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_NE(log.to_json("b").find("\"dropped\": 3"), std::string::npos);
}

// events() breaks equal timestamps by thread, then name, then duration,
// and hands back events at TraceEvent's own 64-byte alignment.
TEST(TraceJsonTest, EventsBreakTimestampTiesByThreadNameDuration) {
  TraceLog log(/*ring_capacity=*/16);
  // Emitted in reverse of the expected order.
  log.emit(make_event("late", 6, 0));
  log.emit(make_event("b", 5, 2, 1));
  log.emit(make_event("c", 5, 1, 0));
  log.emit(make_event("a", 5, 1, 9));
  log.emit(make_event("a", 5, 1, 3));
  log.emit(make_event("a", 5, 1, 0));
  log.emit(make_event("z", 5, 0));
  log.emit(make_event("early", 4, 7));

  const std::vector<TraceEvent> events = log.events();
  ASSERT_EQ(events.size(), 8u);
  const struct {
    const char* name;
    std::uint64_t ts_ns;
    std::uint32_t tid;
    std::uint64_t dur_ns;
  } expected[] = {{"early", 4, 7, 0}, {"z", 5, 0, 0}, {"a", 5, 1, 0},
                  {"a", 5, 1, 3},     {"a", 5, 1, 9}, {"c", 5, 1, 0},
                  {"b", 5, 2, 1},     {"late", 6, 0, 0}};
  for (std::size_t i = 0; i < events.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_STREQ(events[i].name, expected[i].name);
    EXPECT_EQ(events[i].ts_ns, expected[i].ts_ns);
    EXPECT_EQ(events[i].tid, expected[i].tid);
    EXPECT_EQ(events[i].dur_ns, expected[i].dur_ns);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&events[i]) %
                  alignof(TraceEvent),
              0u);
  }
}

// Events equal on every sort key keep their emission order.
TEST(TraceJsonTest, EventsKeepEmissionOrderOnFullTies) {
  TraceLog log(/*ring_capacity=*/8);
  for (int i = 0; i < 6; ++i) {
    TraceEvent ev = make_event("tie", 10, 3);
    ev.arg_key[0] = "seq";
    ev.arg_val[0] = i;
    log.emit(ev);
  }
  const std::vector<TraceEvent> events = log.events();
  ASSERT_EQ(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].arg_val[0], static_cast<double>(i));
}

// The bit-identical-rows contract rests on this: a disabled scope must not
// even read the clock, let alone record. The scripted counting clock proves
// the whole emit surface is inert when tracing is off.
TEST(TraceDisabledTest, HelpersTakeNoClockReadingWhenDisabled) {
  TraceGuard guard;
  set_trace_enabled(false);
  g_clock_calls.store(0);
  trace_detail::set_clock_for_testing(&counting_clock);
  {
    TraceScope scope("x");
    TraceScope with_args("y", "k", 1.0, "k2", 2.0);
    TraceScope null_name(nullptr, "k", 1.0);
  }
  EXPECT_EQ(g_clock_calls.load(), 0u);
  trace_detail::set_clock_for_testing(nullptr);
}

TEST(TraceDisabledTest, NullNameScopeIsInertEvenWhenEnabled) {
  TraceGuard guard;
  set_trace_enabled(true);
  g_clock_calls.store(0);
  trace_detail::set_clock_for_testing(&counting_clock);
  {
    TraceScope scope(nullptr);  // the GEMM size-threshold path
    TraceScope with_args(nullptr, "mflops", 0.5, "m", 1.0);
  }
  EXPECT_EQ(g_clock_calls.load(), 0u);
  trace_detail::set_clock_for_testing(nullptr);
}

TEST(TraceDisabledTest, GlobalLogRecordsNothingWhenDisabled) {
  TraceGuard guard;
  set_trace_enabled(false);
  TraceLog::global().reset();
  {
    TraceScope scope("episode.run", "seed", 1.0);
  }
  EXPECT_TRUE(TraceLog::global().events().empty());
  EXPECT_EQ(TraceLog::global().dropped(), 0u);
}

// Concurrency contract: many pool workers hammering the global log must be
// race-free (relaxed slot claims, no locks); registered with the TSan suite
// via the Trace name filter in run_checks.sh.
TEST(TraceConcurrencyTest, ConcurrentEmittersAreRaceFree) {
  TraceGuard guard;
  util::ThreadPool::reset_global(4);
  set_trace_enabled(true);
  TraceLog::global().reset();
  constexpr std::size_t kItems = 4000;
  util::ThreadPool::global().parallel_for(
      kItems, /*grain=*/64, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          TraceScope scope("test.scope", "i", static_cast<double>(i));
          TraceScope inner("test.instant");
        }
      });
  set_trace_enabled(false);
  const std::vector<TraceEvent> events = TraceLog::global().events();
  EXPECT_FALSE(events.empty());
  // Retention is bounded by the rings; everything beyond that is accounted
  // for in dropped() rather than silently lost.
  EXPECT_LE(events.size(), TraceLog::kRings * TraceLog::kDefaultRingCapacity);
  for (const TraceEvent& ev : events) {
    ASSERT_NE(ev.name, nullptr);
    const std::string name(ev.name);
    EXPECT_TRUE(name == "test.scope" || name == "test.instant" ||
                name == "pool.job" || name == "pool.drain")
        << name;
  }
  TraceLog::global().reset();
}

/// Enables the forensics stream without set_forensics_path so no atexit
/// export hook gets registered by a test; restores flag + buffer on exit.
class ForensicsGuard {
 public:
  ForensicsGuard() : saved_(forensics_enabled()) {
    forensics_reset();
    forensics_detail::g_forensics_enabled.store(true,
                                                std::memory_order_relaxed);
  }
  ~ForensicsGuard() {
    forensics_reset();
    forensics_detail::g_forensics_enabled.store(saved_,
                                                std::memory_order_relaxed);
  }

 private:
  bool saved_;
};

TEST(ForensicsTest, DisabledStreamBuffersNothing) {
  forensics_reset();
  ASSERT_FALSE(forensics_enabled());  // default-off
  ForensicsStep rec;
  rec.seed = 1;
  forensics_record(rec);
  EXPECT_EQ(forensics_size(), 0u);
  EXPECT_TRUE(forensics_to_jsonl().empty());
}

// JSONL golden: records inserted out of configuration order come out sorted
// by (episode_key, seed, step), optional fields appear only when observed,
// and the bytes are exact (fixed key order, fmt_double numerics).
TEST(ForensicsTest, JsonlIsSortedAndByteExact) {
  ForensicsGuard guard;

  ForensicsStep attacked;
  attacked.episode_key = 2;
  attacked.seed = 5;
  attacked.step = 1;
  attacked.eligible = true;
  attacked.attacked = true;
  attacked.predicted = 1;
  attacked.action = 1;
  attacked.agree = 1;
  attacked.model_forward = 3;
  attacked.model_gradient = 2;
  attacked.victim_queries = 2;
  attacked.l2 = 0.5;
  attacked.linf = 0.25;
  attacked.loss = 1.5;
  attacked.has_loss = true;
  attacked.det_score = 0.75;
  attacked.det_flag = false;
  attacked.det_active = true;
  forensics_record(attacked);

  ForensicsStep clean;  // defaults: nothing observed
  clean.episode_key = 1;
  clean.seed = 3;
  clean.step = 0;
  forensics_record(clean);

  const std::string expected =
      "{\"episode\": \"0000000000000001\", \"seed\": 3, \"step\": 0, "
      "\"eligible\": false, \"attacked\": false, \"predicted\": -1, "
      "\"action\": -1, \"agree\": -1, \"queries\": {\"forward\": 0, "
      "\"gradient\": 0, \"victim\": 0}, \"l2\": 0, \"linf\": 0}\n"
      "{\"episode\": \"0000000000000002\", \"seed\": 5, \"step\": 1, "
      "\"eligible\": true, \"attacked\": true, \"predicted\": 1, "
      "\"action\": 1, \"agree\": 1, \"queries\": {\"forward\": 3, "
      "\"gradient\": 2, \"victim\": 2}, \"l2\": 0.5, \"linf\": 0.25, "
      "\"loss\": 1.5, \"det\": {\"score\": 0.75, \"flag\": false}}\n";
  EXPECT_EQ(forensics_to_jsonl(), expected);
}

TEST(ForensicsTest, EpisodeKeyMixIsOrderSensitive) {
  const std::uint64_t a =
      forensics_key_mix(forensics_key_mix(forensics_key_begin(), 1), 2);
  const std::uint64_t b =
      forensics_key_mix(forensics_key_mix(forensics_key_begin(), 2), 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, forensics_key_begin());
}

}  // namespace
}  // namespace rlattack::obs
