// The fiber rendezvous under the episode driver: util::Fiber stacks and
// switches, and BatchedCraftPlanner::run's scheduler — fixed resume order,
// a flush only once every unfinished fiber waits, failure containment, and
// queries outside a running rendezvous.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "rlattack/attack/attack.hpp"
#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/util/fiber.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::attack {
namespace {

using EvalProbe = BatchedCraftPlanner::EvalProbe;

seq2seq::Seq2SeqModel make_model() {
  return seq2seq::Seq2SeqModel(seq2seq::make_cartpole_seq2seq_config(4, 2),
                               /*seed=*/7);
}

CraftInputs make_inputs() {
  CraftInputs inputs;
  inputs.action_history = nn::Tensor({1, 4, 2});
  inputs.obs_history = nn::Tensor({1, 4, 4});
  inputs.current_obs = nn::Tensor({1, 4});
  for (std::size_t t = 0; t < 4; ++t) inputs.action_history[t * 2] = 1.0f;
  for (std::size_t i = 0; i < inputs.obs_history.size(); ++i)
    inputs.obs_history[i] = 0.01f * static_cast<float>(i);
  return inputs;
}

/// Eval probe whose observation names the fiber and step that sent it.
std::size_t ask(BatchedCraftPlanner& planner, std::size_t fiber,
                std::size_t step) {
  const nn::Tensor observation(
      {2}, {static_cast<float>(fiber), static_cast<float>(step)});
  EvalProbe probe;
  probe.observation = &observation;
  planner.submit(probe);
  return probe.action;
}

/// Victim handler that logs each flush's rows as (fiber, step) pairs and
/// answers each probe with fiber * 100 + step.
struct FlushLog {
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> flushes;

  BatchedCraftPlanner::EvalHandler handler() {
    return [this](std::span<EvalProbe* const> probes) {
      auto& rows = flushes.emplace_back();
      for (EvalProbe* probe : probes) {
        const auto fiber = static_cast<std::size_t>((*probe->observation)[0]);
        const auto step = static_cast<std::size_t>((*probe->observation)[1]);
        rows.emplace_back(fiber, step);
        probe->action = fiber * 100 + step;
      }
    };
  }
};

TEST(BatchedFiberRendezvous, ResumesFibersInFixedOrder) {
  seq2seq::Seq2SeqModel model = make_model();
  BatchedCraftPlanner planner(model);
  FlushLog log;
  planner.set_victim_handler(log.handler());
  std::vector<std::pair<std::size_t, std::size_t>> order;
  planner.run(4, [&](std::size_t fiber) {
    for (std::size_t step = 0; step < 3; ++step) {
      order.emplace_back(fiber, step);
      EXPECT_EQ(ask(planner, fiber, step), fiber * 100 + step);
    }
  });
  // Round by round, fiber 0 first; each flush carries the rows in the same
  // order.
  std::vector<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t step = 0; step < 3; ++step)
    for (std::size_t fiber = 0; fiber < 4; ++fiber)
      expected.emplace_back(fiber, step);
  EXPECT_EQ(order, expected);
  ASSERT_EQ(log.flushes.size(), 3u);
  for (std::size_t step = 0; step < 3; ++step)
    EXPECT_EQ(log.flushes[step],
              std::vector(expected.begin() + static_cast<long>(step * 4),
                          expected.begin() + static_cast<long>(step * 4 + 4)));
}

TEST(BatchedFiberRendezvous, FlushesOnlyWhenEveryUnfinishedFiberWaits) {
  seq2seq::Seq2SeqModel model = make_model();
  BatchedCraftPlanner planner(model);
  std::size_t unfinished = 5;
  std::vector<std::size_t> rows_per_flush;
  planner.set_victim_handler([&](std::span<EvalProbe* const> probes) {
    // Every fiber that has not finished has a probe in this flush.
    EXPECT_EQ(probes.size(), unfinished);
    rows_per_flush.push_back(probes.size());
  });
  const CraftInputs inputs = make_inputs();
  std::vector<std::size_t> craft_answers(5, 0);
  // Fiber f asks f + 1 questions, alternating eval and craft probes, so the
  // fibers finish one per round; craft rounds hold no eval rows.
  planner.run(5, [&](std::size_t fiber) {
    CraftContext ctx(planner, inputs);
    for (std::size_t q = 0; q <= fiber; ++q) {
      if (q % 2 == 0)
        (void)ask(planner, fiber, q);
      else
        craft_answers[fiber] += ctx.predict_actions().size();
    }
    --unfinished;
  });
  EXPECT_EQ(unfinished, 0u);
  // Rounds 0, 2 and 4 are eval rounds with 5, 3 and 1 fibers waiting.
  EXPECT_EQ(rows_per_flush, (std::vector<std::size_t>{5, 3, 1}));
  EXPECT_EQ(craft_answers, (std::vector<std::size_t>{0, 2, 2, 4, 4}));
}

struct FiberFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};
struct LaterFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(BatchedFiberRendezvous, ExceptionInOneFiberSurfacesAfterOthersFinish) {
  seq2seq::Seq2SeqModel model = make_model();
  BatchedCraftPlanner planner(model);
  FlushLog log;
  planner.set_victim_handler(log.handler());
  std::vector<std::size_t> answered(4, 0);
  try {
    planner.run(4, [&](std::size_t fiber) {
      for (std::size_t step = 0; step < 5; ++step) {
        if (fiber == 3 && step == 1) throw LaterFault("fiber 3");
        if (fiber == 1 && step == 2) throw FiberFault("fiber 1");
        (void)ask(planner, fiber, step);
        ++answered[fiber];
      }
    });
    ADD_FAILURE() << "run returned";
  } catch (const FiberFault& e) {
    // The lowest failing fiber's error, once every other fiber finished.
    EXPECT_STREQ(e.what(), "fiber 1");
  }
  EXPECT_EQ(answered, (std::vector<std::size_t>{5, 2, 5, 1}));
  ASSERT_EQ(log.flushes.size(), 5u);
  const std::vector<std::size_t> expected_rows = {4, 3, 2, 2, 2};
  for (std::size_t r = 0; r < 5; ++r)
    EXPECT_EQ(log.flushes[r].size(), expected_rows[r]) << "round " << r;
}

TEST(BatchedFiberRendezvous, FlushErrorReachesEveryWaitingFiber) {
  seq2seq::Seq2SeqModel model = make_model();
  BatchedCraftPlanner planner(model);
  std::size_t flushes = 0;
  planner.set_victim_handler([&](std::span<EvalProbe* const> probes) {
    if (++flushes == 2) throw FiberFault("flush 2");
    for (EvalProbe* probe : probes) probe->action = 1;
  });
  std::vector<std::string> seen(3);
  planner.run(3, [&](std::size_t fiber) {
    try {
      for (std::size_t step = 0; step < 4; ++step) (void)ask(planner, fiber, step);
    } catch (const FiberFault& e) {
      seen[fiber] = e.what();
    }
  });
  EXPECT_EQ(seen, (std::vector<std::string>(3, "flush 2")));
  EXPECT_EQ(flushes, 2u);
}

TEST(BatchedFiberRendezvous, FibersRunUnderTheirOwnThreadIndex) {
  seq2seq::Seq2SeqModel model = make_model();
  BatchedCraftPlanner planner(model);
  FlushLog log;
  planner.set_victim_handler(log.handler());
  const std::size_t caller = util::ThreadPool::thread_index();
  std::vector<std::size_t> before(3), after(3);
  planner.run(3, [&](std::size_t fiber) {
    before[fiber] = util::ThreadPool::thread_index();
    (void)ask(planner, fiber, 0);
    after[fiber] = util::ThreadPool::thread_index();
  });
  EXPECT_EQ(util::ThreadPool::thread_index(), caller);
  EXPECT_EQ(before, after);
  const std::set<std::size_t> distinct(before.begin(), before.end());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct.count(caller), 0u);
}

TEST(BatchedFiberRendezvous, SubmitOutsideRunningRendezvousThrows) {
  seq2seq::Seq2SeqModel model = make_model();
  BatchedCraftPlanner planner(model);
  planner.set_victim_handler([](std::span<EvalProbe* const> probes) {
    for (EvalProbe* probe : probes) probe->action = 0;
  });
  const CraftInputs inputs = make_inputs();
  const nn::Tensor observation({2});
  const auto expect_both_throw = [&] {
    CraftContext ctx(planner, inputs);
    EXPECT_THROW((void)ctx.predict_actions(), std::logic_error);
    EvalProbe probe;
    probe.observation = &observation;
    EXPECT_THROW(planner.submit(probe), std::logic_error);
  };
  expect_both_throw();
  planner.run(1, [&](std::size_t) { (void)ask(planner, 0, 0); });
  expect_both_throw();  // after the rendezvous ended
  // A fiber the planner did not resume is outside its rendezvous too.
  util::Fiber stranger(expect_both_throw);
  stranger.resume();
  EXPECT_TRUE(stranger.finished());
  EXPECT_EQ(stranger.error(), nullptr);
  // So is a nested run on the same planner.
  planner.run(1, [&](std::size_t) {
    EXPECT_THROW(planner.run(1, [](std::size_t) {}), std::logic_error);
  });
}

/// Recurses until `budget` bytes of stack below `top` are in use, filling
/// each frame with a pattern, yielding at the deepest frame, and checking
/// every frame's pattern on the way back up. Returns the depth reached.
std::size_t fill_and_check(std::uintptr_t top, std::size_t budget,
                           std::uint8_t tag, bool& intact) {
  volatile std::uint8_t frame[512];
  for (std::size_t i = 0; i < sizeof(frame); ++i)
    frame[i] = static_cast<std::uint8_t>(tag + i);
  const auto here =
      reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  std::size_t depth = 1;
  if (top - here < budget && depth < 100000)
    depth += fill_and_check(top, budget, tag, intact);
  else
    util::Fiber::yield();
  for (std::size_t i = 0; i < sizeof(frame); ++i)
    if (frame[i] != static_cast<std::uint8_t>(tag + i)) intact = false;
  return depth;
}

TEST(BatchedFiberRendezvous, DeepRecursionWithinStackSizeRuns) {
  // Two fibers each fill three quarters of the default stack, park at the
  // bottom, and find their frames intact after the other ran.
  const std::size_t budget = util::Fiber::kStackBytes * 3 / 4;
  std::size_t depth[2] = {0, 0};
  bool intact[2] = {true, true};
  std::vector<std::unique_ptr<util::Fiber>> pool;
  for (std::size_t f = 0; f < 2; ++f)
    pool.push_back(std::make_unique<util::Fiber>([&, f] {
      const auto top =
          reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
      depth[f] = fill_and_check(top, budget, static_cast<std::uint8_t>(f * 7),
                                intact[f]);
    }));
  for (auto& fiber : pool) fiber->resume();  // both park at their bottom
  for (auto& fiber : pool) {
    EXPECT_FALSE(fiber->finished());
    fiber->resume();
    EXPECT_TRUE(fiber->finished());
    EXPECT_EQ(fiber->error(), nullptr);
  }
  for (std::size_t f = 0; f < 2; ++f) {
    EXPECT_TRUE(intact[f]) << "fiber " << f;
    // At least one 512-byte frame per 1 KiB of the budget.
    EXPECT_GT(depth[f], budget / 1024) << "fiber " << f;
  }
}

TEST(BatchedFiberRendezvous, YieldOutsideFiberThrows) {
  EXPECT_THROW(util::Fiber::yield(), std::logic_error);
  util::Fiber fiber([] {});
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_THROW(fiber.resume(), std::logic_error);
}

}  // namespace
}  // namespace rlattack::attack
