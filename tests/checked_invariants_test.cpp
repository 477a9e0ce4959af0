// Negative tests for the RLATTACK_CHECKED invariant layer: each case feeds
// a deliberately broken input (shape mismatch, NaN, over-budget
// perturbation, bounds escape) and asserts the matching diagnostic trips as
// util::CheckFailure. Only registered with CTest when the tree is
// configured with -DRLATTACK_CHECKED=ON — in release builds the checks are
// compiled out and nothing here would throw.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "deadline.hpp"
#include "rlattack/attack/attack.hpp"
#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/core/parallel_episodes.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/nn/sequential.hpp"
#include "rlattack/rl/batch.hpp"
#include "rlattack/rl/q_agent.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/util/check.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack {
namespace {

static_assert(util::kCheckedBuild,
              "checked_invariants_test must be built with RLATTACK_CHECKED");

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// ---------------------------------------------------------------- helpers

/// Layer that forwards its input unchanged but misbehaves on demand: a
/// wrong-shaped gradient out of backward, or a NaN injected into forward.
class BrokenLayer final : public nn::Layer {
 public:
  enum class Mode { kWrongGradShape, kNanForward };
  explicit BrokenLayer(Mode mode) : mode_(mode) {}

  nn::Tensor forward(const nn::Tensor& input) override {
    nn::Tensor out = input;
    if (mode_ == Mode::kNanForward && !out.empty()) out[0] = kNaN;
    return out;
  }
  nn::Tensor backward(const nn::Tensor& grad_output) override {
    if (mode_ == Mode::kWrongGradShape)
      return nn::Tensor({grad_output.size() + 1});
    return grad_output;
  }
  std::string name() const override { return "BrokenLayer"; }

 private:
  Mode mode_;
};

/// Layer with one parameter that keeps the default backward_input, which
/// is only valid for parameter-free layers.
class ParamLayerWithoutBackwardInput final : public nn::Layer {
 public:
  nn::Tensor forward(const nn::Tensor& input) override { return input; }
  nn::Tensor backward(const nn::Tensor& grad_output) override {
    grad_scale_[0] += 1.0f;
    return grad_output;
  }
  std::vector<nn::Param> params() override {
    return {{&scale_, &grad_scale_, "scale"}};
  }
  std::string name() const override { return "ParamLayerWithoutBackwardInput"; }

 private:
  nn::Tensor scale_{1};
  nn::Tensor grad_scale_{1};
};

seq2seq::Seq2SeqModel make_model() {
  return seq2seq::Seq2SeqModel(seq2seq::make_cartpole_seq2seq_config(4, 2),
                               /*seed=*/7);
}

attack::CraftInputs make_inputs() {
  attack::CraftInputs inputs;
  inputs.action_history = nn::Tensor({1, 4, 2});
  inputs.obs_history = nn::Tensor({1, 4, 4});
  inputs.current_obs = nn::Tensor({1, 4});
  for (std::size_t t = 0; t < 4; ++t) inputs.action_history[t * 2] = 1.0f;
  for (std::size_t i = 0; i < inputs.obs_history.size(); ++i)
    inputs.obs_history[i] = 0.01f * static_cast<float>(i);
  for (std::size_t i = 0; i < inputs.current_obs.size(); ++i)
    inputs.current_obs[i] = 0.1f * static_cast<float>(i);
  return inputs;
}

// ------------------------------------------------- shape-agreement checks

TEST(CheckedInvariantsTest, SequentialBackwardRejectsMismatchedGradient) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 3, rng);
  net.forward(nn::Tensor({2, 4}));
  // Gradient shaped like the *input*, not the output: the chain-level shape
  // check must trip before the layer sees it.
  EXPECT_THROW(net.backward(nn::Tensor({2, 4})), util::CheckFailure);
}

TEST(CheckedInvariantsTest, SequentialCatchesLayerEmittingWrongGradShape) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 4, rng);
  net.emplace<BrokenLayer>(BrokenLayer::Mode::kWrongGradShape);
  net.forward(nn::Tensor({1, 4}));
  EXPECT_THROW(net.backward(nn::Tensor({1, 4})), util::CheckFailure);
}

TEST(CheckedInvariantsTest, SequentialBackwardInputCatchesWrongGradShape) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 4, rng);
  net.emplace<BrokenLayer>(BrokenLayer::Mode::kWrongGradShape);
  net.forward(nn::Tensor({1, 4}));
  EXPECT_THROW(net.backward_input(nn::Tensor({1, 4})), util::CheckFailure);
}

TEST(CheckedInvariantsTest, DefaultBackwardInputRejectsLayerWithParameters) {
  // The default forwards to backward, which would write the parameter
  // gradient backward_input promises to leave alone.
  ParamLayerWithoutBackwardInput layer;
  layer.forward(nn::Tensor({1, 4}));
  EXPECT_THROW(layer.backward_input(nn::Tensor({1, 4})), util::CheckFailure);
  EXPECT_EQ(layer.params()[0].grad->data()[0], 0.0f);
  // Parameter-free layers take the default.
  BrokenLayer passthrough(BrokenLayer::Mode::kNanForward);
  passthrough.forward(nn::Tensor({1, 4}));
  EXPECT_NO_THROW(passthrough.backward_input(nn::Tensor({1, 4})));
}

TEST(CheckedInvariantsTest, SgemmRejectsOutputOverlappingAnOperand) {
  // sgemm may read a row-major operand in place while it writes C.
  using nn::kernels::Trans;
  std::vector<float> buf(64, 1.0f);
  float* a = buf.data();
  float* b = buf.data() + 16;
  float* c = buf.data() + 32;
  EXPECT_THROW(nn::kernels::sgemm(Trans::kNo, Trans::kNo, 4, 4, 4, a, 4, b, 4,
                                  a + 12, 4, false),
               util::CheckFailure);
  EXPECT_THROW(nn::kernels::sgemm(Trans::kNo, Trans::kYes, 4, 4, 4, a, 4, b, 4,
                                  b + 3, 4, true),
               util::CheckFailure);
  // Adjacent but disjoint ranges are fine.
  EXPECT_NO_THROW(nn::kernels::sgemm(Trans::kYes, Trans::kNo, 4, 4, 4, a, 4,
                                     b, 4, c, 4, false));
}

TEST(CheckedInvariantsTest, SequentialBackwardRejectsCallWithoutForward) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 3, rng);
  EXPECT_THROW(net.backward(nn::Tensor({1, 3})), util::CheckFailure);
}

// ---------------------------------------------------------- NaN/Inf checks

TEST(CheckedInvariantsTest, SequentialForwardRejectsNanInput) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 3, rng);
  nn::Tensor poisoned({1, 4});
  poisoned[2] = kNaN;
  EXPECT_THROW(net.forward(poisoned), util::CheckFailure);
}

TEST(CheckedInvariantsTest, SequentialCatchesLayerProducingNan) {
  util::Rng rng(1);
  nn::Sequential net;
  net.emplace<nn::Dense>(4, 4, rng);
  net.emplace<BrokenLayer>(BrokenLayer::Mode::kNanForward);
  EXPECT_THROW(net.forward(nn::Tensor({1, 4})), util::CheckFailure);
}

TEST(CheckedInvariantsTest, Seq2SeqForwardRejectsNanObservation) {
  auto model = make_model();
  auto inputs = make_inputs();
  inputs.current_obs[1] = kNaN;
  EXPECT_THROW(
      model.forward(inputs.action_history, inputs.obs_history,
                    inputs.current_obs),
      util::CheckFailure);
}

TEST(CheckedInvariantsTest, Seq2SeqBackwardRejectsNanGradient) {
  auto model = make_model();
  auto inputs = make_inputs();
  nn::Tensor logits = model.forward(inputs.action_history, inputs.obs_history,
                                    inputs.current_obs);
  nn::Tensor grad(logits.shape());
  grad[0] = std::numeric_limits<float>::infinity();
  EXPECT_THROW(model.backward(grad), util::CheckFailure);
}

TEST(CheckedInvariantsTest, CleanSeq2SeqRoundTripDoesNotTrip) {
  auto model = make_model();
  auto inputs = make_inputs();
  nn::Tensor logits = model.forward(inputs.action_history, inputs.obs_history,
                                    inputs.current_obs);
  nn::Tensor grad(logits.shape());
  grad.fill(0.25f);
  EXPECT_NO_THROW(model.backward(grad));
}

// --------------------------------------------- craft-path staleness checks

/// One encoding of make_inputs()'s histories, minted by `model`.
std::vector<seq2seq::HistoryEncoding> encode(seq2seq::Seq2SeqModel& model,
                                             const attack::CraftInputs& in) {
  return model.encode_history_batch(in.action_history, in.obs_history);
}

TEST(CheckedInvariantsTest, ForwardCachedBatchRejectsForeignEncoding) {
  // An encoding minted by one model must not drive another (a clone's
  // weights may have diverged since).
  auto model = make_model();
  auto other = make_model();
  auto inputs = make_inputs();
  auto encodings = encode(other, inputs);
  EXPECT_THROW(model.forward_cached_batch({&encodings[0]}, inputs.current_obs),
               util::CheckFailure);
}

TEST(CheckedInvariantsTest, ForwardCachedBatchRejectsTamperedInputSteps) {
  auto model = make_model();
  auto inputs = make_inputs();
  auto encodings = encode(model, inputs);
  encodings[0].input_steps += 1;  // stale: history length no longer matches
  EXPECT_THROW(model.forward_cached_batch({&encodings[0]}, inputs.current_obs),
               util::CheckFailure);
}

TEST(CheckedInvariantsTest, ForwardCachedBatchRejectsDecoderVariantMismatch) {
  auto model = make_model();
  auto inputs = make_inputs();
  auto encodings = encode(model, inputs);
  encodings[0].attention = !encodings[0].attention;
  EXPECT_THROW(model.forward_cached_batch({&encodings[0]}, inputs.current_obs),
               util::CheckFailure);
}

TEST(CheckedInvariantsTest, ForwardCachedBatchRejectsNanRow) {
  auto model = make_model();
  auto inputs = make_inputs();
  auto encodings = encode(model, inputs);
  inputs.current_obs[0] = kNaN;
  EXPECT_THROW(model.forward_cached_batch({&encodings[0]}, inputs.current_obs),
               util::CheckFailure);
}

TEST(CheckedInvariantsTest, EncodeHistoryBatchRejectsNanHistory) {
  auto model = make_model();
  auto inputs = make_inputs();
  inputs.obs_history[2] = kNaN;
  EXPECT_THROW(encode(model, inputs), util::CheckFailure);
}

TEST(CheckedInvariantsTest, BackwardToCurrentBatchWithoutCachedForwardTrips) {
  auto model = make_model();
  auto inputs = make_inputs();
  nn::Tensor logits = model.forward(inputs.action_history, inputs.obs_history,
                                    inputs.current_obs);
  nn::Tensor grad(logits.shape());
  grad.fill(0.5f);
  // The last forward was the *full* path; the truncated backward has no
  // encoding boundary to stop at.
  EXPECT_THROW(model.backward_to_current_batch(grad), util::CheckFailure);
}

TEST(CheckedInvariantsTest, FullBackwardAfterCachedForwardTrips) {
  auto model = make_model();
  auto inputs = make_inputs();
  auto encodings = encode(model, inputs);
  nn::Tensor logits =
      model.forward_cached_batch({&encodings[0]}, inputs.current_obs);
  nn::Tensor grad(logits.shape());
  grad.fill(0.5f);
  // The history heads never ran forward, so the full backward would be
  // garbage — the pairing check must trip.
  EXPECT_THROW(model.backward(grad), util::CheckFailure);
}

TEST(CheckedInvariantsTest, CleanCachedRoundTripDoesNotTrip) {
  auto model = make_model();
  auto inputs = make_inputs();
  auto encodings = encode(model, inputs);
  nn::Tensor logits =
      model.forward_cached_batch({&encodings[0]}, inputs.current_obs);
  nn::Tensor grad(logits.shape());
  grad.fill(0.25f);
  EXPECT_NO_THROW(model.backward_to_current_batch(grad));
}

// ------------------------------------------------------ attack budget checks

TEST(CheckedInvariantsTest, OverBudgetPerturbationTrips) {
  const nn::Tensor original({1, 4});
  nn::Tensor perturbed = original;
  perturbed[0] = 3.0f;  // L2 distance 3 against an epsilon of 0.5
  attack::Budget budget;  // L2, epsilon 0.5
  EXPECT_THROW(
      attack::check_perturbation(original, perturbed, budget,
                                 {-10.0f, 10.0f}, "rogue"),
      util::CheckFailure);
}

TEST(CheckedInvariantsTest, LinfBudgetViolationTrips) {
  const nn::Tensor original({1, 4});
  nn::Tensor perturbed = original;
  perturbed[3] = 0.2f;
  attack::Budget budget;
  budget.norm = attack::Budget::Norm::kLinf;
  budget.epsilon = 0.1f;
  EXPECT_THROW(
      attack::check_perturbation(original, perturbed, budget,
                                 {-10.0f, 10.0f}, "rogue"),
      util::CheckFailure);
}

TEST(CheckedInvariantsTest, BoundsEscapeTrips) {
  const nn::Tensor original({1, 4});
  nn::Tensor perturbed = original;
  perturbed[1] = 2.0f;  // outside [-1, 1] though within the L2 budget below
  attack::Budget budget;
  budget.epsilon = 5.0f;
  EXPECT_THROW(
      attack::check_perturbation(original, perturbed, budget, {-1.0f, 1.0f},
                                 "rogue"),
      util::CheckFailure);
}

TEST(CheckedInvariantsTest, BuiltInAttacksPassTheirOwnAudit) {
  // Every built-in attack self-checks through check_perturbation in checked
  // builds; a clean run is the "no false positives" half of the contract.
  auto model = make_model();
  auto inputs = make_inputs();
  attack::Goal goal;
  attack::Budget budget;
  util::Rng rng(3);
  for (const attack::Kind kind :
       {attack::Kind::kGaussian, attack::Kind::kFgsm, attack::Kind::kPgd,
        attack::Kind::kCw, attack::Kind::kJsma}) {
    auto attacker = attack::make_attack(kind);
    EXPECT_NO_THROW(attacker->perturb(model, inputs, goal, budget,
                                      {-5.0f, 5.0f}, rng))
        << attack::attack_name(kind);
  }
}

// ---------------------------------------------- failures in the rendezvous

/// Attack that ignores its budget: it moves the first feature by 3, over
/// the default L2 epsilon of 0.5, and skips the self-audit the built-in
/// attacks run, so only the pipeline's trust boundary can catch it.
class OverBudgetAttack final : public attack::Attack {
 public:
  using attack::Attack::perturb;
  nn::Tensor perturb(attack::CraftContext& ctx, const attack::Goal&,
                     const attack::Budget&, env::ObservationBounds,
                     util::Rng&) override {
    nn::Tensor out = ctx.inputs().current_obs;
    out[0] += 3.0f;
    return out;
  }
  std::string name() const override { return "over-budget"; }
};

TEST(CheckedInvariantsTest, OverBudgetAttackInRendezvousSurfacesCheckFailure) {
  auto model = make_model();
  rl::AgentPtr victim = rl::make_dqn_agent(rl::ObsSpec{{4}}, 2, 21);
  attack::BatchedCraftPlanner planner(model);
  planner.set_victim_handler(
      [&victim](
          std::span<attack::BatchedCraftPlanner::EvalProbe* const> probes) {
        std::vector<const nn::Tensor*> rows(probes.size());
        for (std::size_t r = 0; r < probes.size(); ++r)
          rows[r] = probes[r]->observation;
        const std::vector<std::size_t> actions =
            victim->act_batch(rl::batch_observations(rows), false);
        for (std::size_t r = 0; r < probes.size(); ++r)
          probes[r]->action = actions[r];
      });
  OverBudgetAttack rogue;
  attack::AttackPtr fgsm = attack::make_attack(attack::Kind::kFgsm);
  const attack::Budget budget;  // L2, epsilon 0.5
  core::AttackSession faulty(*victim, env::Game::kCartPole, model, rogue,
                             budget);
  core::AttackSession healthy(*victim, env::Game::kCartPole, model, *fgsm,
                              budget);
  core::AttackPolicy every_step;
  every_step.mode = core::AttackPolicy::Mode::kEveryStep;
  // Two fibers in one rendezvous: the rogue session's first attacked step
  // trips the pipeline's check_perturbation, and the error surfaces from
  // the rendezvous once the other session has played on alone.
  bool healthy_finished = false;
  testing::within_deadline(std::chrono::seconds(120), [&] {
    EXPECT_THROW(planner.run(2,
                             [&](std::size_t fiber) {
                               if (fiber == 1) {
                                 (void)faulty.run_episode(every_step, 4,
                                                          &planner);
                                 return;
                               }
                               (void)healthy.run_episode(every_step, 3,
                                                         &planner);
                               healthy_finished = true;
                             }),
                 util::CheckFailure);
  });
  EXPECT_TRUE(healthy_finished);
}

TEST(CheckedInvariantsTest, NanApproximatorSurfacesFromRunEpisodeJobs) {
  // A NaN weight in the approximator trips the layer output check inside
  // the craft flush; every host waiting on that flush must see the
  // CheckFailure, and run_episode_jobs rethrows it.
  auto model = make_model();
  (*model.params().front().value)[0] = kNaN;
  rl::AgentPtr victim = rl::make_dqn_agent(rl::ObsSpec{{4}}, 2, 21);
  std::vector<core::EpisodeJob> jobs;
  for (std::uint64_t seed = 10; seed < 16; ++seed) {
    core::EpisodeJob job;
    job.attack = attack::Kind::kFgsm;
    job.policy.mode = core::AttackPolicy::Mode::kEveryStep;
    job.seed = seed;
    jobs.push_back(job);
  }
  testing::within_deadline(std::chrono::seconds(120), [&] {
    EXPECT_THROW(
        core::run_episode_jobs(*victim, env::Game::kCartPole, model, jobs),
        util::CheckFailure);
  });
}

// --------------------------------------------------------- RNG stream hash

TEST(CheckedInvariantsTest, RngStreamHashIsPureFunctionOfSeed) {
  EXPECT_EQ(util::hash_rng_stream(42, 32), util::hash_rng_stream(42, 32));
  EXPECT_NE(util::hash_rng_stream(42, 32), util::hash_rng_stream(43, 32));
  EXPECT_NE(util::hash_rng_stream(42, 32), util::hash_rng_stream(42, 33));
}

TEST(CheckedInvariantsTest, CheckFailureCarriesFileAndLine) {
  try {
    util::check_failed("somefile.cpp", 123, "boom");
    FAIL() << "check_failed must throw";
  } catch (const util::CheckFailure& e) {
    EXPECT_STREQ(e.file(), "somefile.cpp");
    EXPECT_EQ(e.line(), 123);
    EXPECT_NE(std::string(e.what()).find("somefile.cpp:123: boom"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace rlattack
