// Attack invariants: budget respected, bounds clamped, gradient attacks
// actually move the loss, targeted attacks flip predictions on a trained
// toy model.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "rlattack/attack/attack.hpp"
#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/nn/loss.hpp"
#include "rlattack/seq2seq/trainer.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::attack {
namespace {

using rlattack::testing::random_tensor;

seq2seq::Seq2SeqConfig toy_config(std::size_t m = 1) {
  seq2seq::Seq2SeqConfig c;
  c.input_steps = 2;
  c.output_steps = m;
  c.actions = 2;
  c.frame_shape = {4};
  c.embed = 12;
  c.lstm_hidden = 8;
  return c;
}

CraftInputs toy_inputs(util::Rng& rng, std::size_t m = 1) {
  (void)m;
  CraftInputs in;
  in.action_history = random_tensor({1, 2, 2}, rng);
  in.obs_history = random_tensor({1, 2, 4}, rng);
  in.current_obs = random_tensor({1, 4}, rng);
  return in;
}

/// Trains a toy model whose prediction is a_t = (s_t[0] > 0); gives the
/// gradient attacks a crisp decision boundary to push across.
std::unique_ptr<seq2seq::Seq2SeqModel> trained_toy_model(std::size_t m = 1) {
  util::Rng rng(42);
  std::vector<env::Episode> episodes(16);
  for (auto& ep : episodes) {
    for (std::size_t t = 0; t < 20; ++t) {
      env::Transition tr;
      tr.observation = random_tensor({4}, rng);
      tr.action = tr.observation[0] > 0.0f ? 1u : 0u;
      ep.steps.push_back(std::move(tr));
    }
  }
  auto cfg = toy_config(m);
  auto model = std::make_unique<seq2seq::Seq2SeqModel>(cfg, 7);
  seq2seq::EpisodeDataset ds(episodes, cfg.input_steps, cfg.output_steps, 4,
                             2);
  util::Rng train_rng(8);
  auto [train, eval] = ds.split(0.9, train_rng);
  seq2seq::TrainSettings settings;
  settings.epochs = 25;
  settings.batches_per_epoch = 16;
  seq2seq::train_seq2seq(*model, ds, train, eval, settings, train_rng);
  return model;
}

double realised_norm(const nn::Tensor& perturbed, const nn::Tensor& original,
                     Budget::Norm norm) {
  nn::Tensor delta = perturbed;
  delta -= original;
  return norm == Budget::Norm::kL2 ? util::l2_norm(delta.data())
                                   : util::linf_norm(delta.data());
}

class BudgetRespect
    : public ::testing::TestWithParam<std::tuple<Kind, Budget::Norm>> {};

TEST_P(BudgetRespect, PerturbationWithinBudget) {
  const auto [kind, norm] = GetParam();
  auto model = trained_toy_model();
  AttackPtr attack = make_attack(kind);
  util::Rng rng(3);
  Budget budget{norm, 0.5f};
  env::ObservationBounds bounds{-10.0f, 10.0f};
  for (int trial = 0; trial < 5; ++trial) {
    CraftInputs inputs = toy_inputs(rng);
    Goal goal;
    nn::Tensor adv =
        attack->perturb(*model, inputs, goal, budget, bounds, rng);
    const double n = realised_norm(adv, inputs.current_obs, norm);
    EXPECT_LE(n, budget.epsilon * 1.001) << attack_name(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAttacks, BudgetRespect,
    ::testing::Combine(::testing::Values(Kind::kGaussian, Kind::kFgsm,
                                         Kind::kPgd),
                       ::testing::Values(Budget::Norm::kL2,
                                         Budget::Norm::kLinf)));

TEST(Attack, BoundsClamped) {
  auto model = trained_toy_model();
  util::Rng rng(4);
  // Original observation already at the upper bound: any positive
  // perturbation must clamp.
  CraftInputs inputs = toy_inputs(rng);
  inputs.current_obs.fill(1.0f);
  env::ObservationBounds bounds{0.0f, 1.0f};
  Budget budget{Budget::Norm::kLinf, 0.5f};
  for (Kind kind : {Kind::kGaussian, Kind::kFgsm, Kind::kPgd}) {
    AttackPtr attack = make_attack(kind);
    nn::Tensor adv =
        attack->perturb(*model, inputs, Goal{}, budget, bounds, rng);
    for (float x : adv.data()) {
      EXPECT_GE(x, 0.0f);
      EXPECT_LE(x, 1.0f);
    }
  }
}

TEST(Attack, GaussianMatchesBudgetExactly) {
  auto model = trained_toy_model();
  util::Rng rng(5);
  CraftInputs inputs = toy_inputs(rng);
  GaussianAttack attack;
  Budget budget{Budget::Norm::kL2, 0.7f};
  env::ObservationBounds bounds{-100.0f, 100.0f};  // no clamping
  nn::Tensor adv = attack.perturb(*model, inputs, Goal{}, budget, bounds, rng);
  EXPECT_NEAR(realised_norm(adv, inputs.current_obs, Budget::Norm::kL2), 0.7,
              1e-4);
}

TEST(Attack, FgsmIncreasesUntargetedLoss) {
  auto model = trained_toy_model();
  util::Rng rng(6);
  std::size_t improved = 0, total = 0;
  for (int trial = 0; trial < 12; ++trial) {
    CraftInputs inputs = toy_inputs(rng);
    const auto pred = predict_actions(*model, inputs);
    std::vector<std::size_t> targets{pred[0]};
    const float before = nn::softmax_cross_entropy(
                             model->forward(inputs.action_history,
                                            inputs.obs_history,
                                            inputs.current_obs),
                             targets)
                             .loss;
    FgsmAttack attack;
    Budget budget{Budget::Norm::kLinf, 0.2f};
    env::ObservationBounds bounds{-10.0f, 10.0f};
    nn::Tensor adv =
        attack.perturb(*model, inputs, Goal{}, budget, bounds, rng);
    const float after =
        nn::softmax_cross_entropy(model->forward(inputs.action_history,
                                                 inputs.obs_history, adv),
                                  targets)
            .loss;
    if (after > before) ++improved;
    ++total;
  }
  // One FGSM step should raise the loss on the predicted class in the vast
  // majority of random states.
  EXPECT_GE(improved * 10, total * 8);
}

TEST(Attack, TargetedPgdReachesTargetOnToyModel) {
  auto model = trained_toy_model();
  util::Rng rng(7);
  std::size_t hits = 0, total = 0;
  PgdAttack attack(20, 0.2f);
  Budget budget{Budget::Norm::kL2, 3.0f};  // generous budget on a toy task
  env::ObservationBounds bounds{-10.0f, 10.0f};
  for (int trial = 0; trial < 10; ++trial) {
    CraftInputs inputs = toy_inputs(rng);
    const auto pred = predict_actions(*model, inputs);
    Goal goal;
    goal.mode = Goal::Mode::kTargeted;
    goal.position = 0;
    goal.target_action = 1 - pred[0];
    nn::Tensor adv = attack.perturb(*model, inputs, goal, budget, bounds, rng);
    CraftInputs perturbed = inputs;
    perturbed.current_obs = adv;
    if (predict_actions(*model, perturbed)[0] == goal.target_action) ++hits;
    ++total;
  }
  EXPECT_GE(hits * 10, total * 7);
}

TEST(Attack, PgdBeatsOrMatchesFgsmOnFlipRate) {
  auto model = trained_toy_model();
  util::Rng rng(8);
  Budget budget{Budget::Norm::kL2, 0.8f};
  env::ObservationBounds bounds{-10.0f, 10.0f};
  auto flip_rate = [&](Attack& attack) {
    util::Rng local(99);
    std::size_t flips = 0;
    const int trials = 20;
    for (int t = 0; t < trials; ++t) {
      CraftInputs inputs = toy_inputs(local);
      const auto pred = predict_actions(*model, inputs);
      nn::Tensor adv =
          attack.perturb(*model, inputs, Goal{}, budget, bounds, local);
      CraftInputs perturbed = inputs;
      perturbed.current_obs = adv;
      if (predict_actions(*model, perturbed)[0] != pred[0]) ++flips;
    }
    return static_cast<double>(flips) / trials;
  };
  FgsmAttack fgsm;
  PgdAttack pgd(15, 0.25f);
  EXPECT_GE(flip_rate(pgd) + 1e-9, flip_rate(fgsm) - 0.10);
}

TEST(Attack, GradientAttacksBeatGaussianOnFlipRate) {
  // Figure 7's core claim at unit scale: same L2 budget, gradient attacks
  // flip the (approximated) model's decision more often than noise.
  auto model = trained_toy_model();
  Budget budget{Budget::Norm::kL2, 0.8f};
  env::ObservationBounds bounds{-10.0f, 10.0f};
  auto flip_rate = [&](Attack& attack) {
    util::Rng local(123);
    std::size_t flips = 0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      CraftInputs inputs = toy_inputs(local);
      const auto pred = predict_actions(*model, inputs);
      nn::Tensor adv =
          attack.perturb(*model, inputs, Goal{}, budget, bounds, local);
      CraftInputs perturbed = inputs;
      perturbed.current_obs = adv;
      if (predict_actions(*model, perturbed)[0] != pred[0]) ++flips;
    }
    return static_cast<double>(flips) / trials;
  };
  GaussianAttack gaussian;
  FgsmAttack fgsm;
  EXPECT_GT(flip_rate(fgsm), flip_rate(gaussian));
}

TEST(Attack, SequencePositionTargeting) {
  auto model = trained_toy_model(/*m=*/3);
  util::Rng rng(9);
  CraftInputs inputs = toy_inputs(rng);
  // Gradient w.r.t. s_t differs by attacked position: position 0 is driven
  // directly by the current observation, later positions via the decoder.
  nn::Tensor g0 =
      current_obs_gradient(*model, inputs, 0, 0, inputs.current_obs);
  nn::Tensor g2 =
      current_obs_gradient(*model, inputs, 2, 0, inputs.current_obs);
  bool differs = false;
  for (std::size_t i = 0; i < g0.size(); ++i)
    if (std::abs(g0[i] - g2[i]) > 1e-7f) differs = true;
  EXPECT_TRUE(differs);
  EXPECT_THROW(current_obs_gradient(*model, inputs, 3, 0, inputs.current_obs),
               std::logic_error);
}

TEST(Attack, FactoryRoundTrip) {
  for (Kind k : {Kind::kGaussian, Kind::kFgsm, Kind::kPgd, Kind::kCw}) {
    EXPECT_EQ(parse_attack(attack_name(k)), k);
    EXPECT_EQ(make_attack(k)->name(), attack_name(k));
  }
  EXPECT_THROW(parse_attack("deepfool"), std::invalid_argument);
}

TEST(Attack, CwRespectsBudgetAndBounds) {
  auto model = trained_toy_model();
  util::Rng rng(11);
  CwAttack cw(15, 2.0f, 0.1f);
  Budget budget{Budget::Norm::kL2, 0.8f};
  // Bounds must contain the clean observation (they do in the harness:
  // observations come from the environment's own valid range).
  env::ObservationBounds bounds{-6.0f, 6.0f};
  for (int trial = 0; trial < 5; ++trial) {
    CraftInputs inputs = toy_inputs(rng);
    nn::Tensor adv = cw.perturb(*model, inputs, Goal{}, budget, bounds, rng);
    EXPECT_LE(realised_norm(adv, inputs.current_obs, Budget::Norm::kL2),
              0.8 * 1.001);
    for (float x : adv.data()) {
      EXPECT_GE(x, -6.0f);
      EXPECT_LE(x, 6.0f);
    }
  }
}

TEST(Attack, CwFlipsPredictionsOnToyModel) {
  auto model = trained_toy_model();
  util::Rng rng(12);
  CwAttack cw(25, 4.0f, 0.1f);
  Budget budget{Budget::Norm::kL2, 2.0f};
  env::ObservationBounds bounds{-10.0f, 10.0f};
  std::size_t flips = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    CraftInputs inputs = toy_inputs(rng);
    const auto pred = predict_actions(*model, inputs);
    nn::Tensor adv = cw.perturb(*model, inputs, Goal{}, budget, bounds, rng);
    CraftInputs perturbed = inputs;
    perturbed.current_obs = adv;
    if (predict_actions(*model, perturbed)[0] != pred[0]) ++flips;
  }
  EXPECT_GE(flips * 10, trials * 6);
}

TEST(Attack, CwFindsSmallerPerturbationsThanFgsm) {
  // The defining CW property: the L2 term in its objective pulls the
  // perturbation back toward zero once the flip is confident, while FGSM
  // always spends the whole budget.
  auto model = trained_toy_model();
  util::Rng rng(13);
  CwAttack cw(25, 4.0f, 0.1f);
  FgsmAttack fgsm;
  Budget budget{Budget::Norm::kL2, 2.0f};
  env::ObservationBounds bounds{-10.0f, 10.0f};
  double cw_total = 0.0, fgsm_total = 0.0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    CraftInputs inputs = toy_inputs(rng);
    nn::Tensor a = cw.perturb(*model, inputs, Goal{}, budget, bounds, rng);
    nn::Tensor b = fgsm.perturb(*model, inputs, Goal{}, budget, bounds, rng);
    cw_total += realised_norm(a, inputs.current_obs, Budget::Norm::kL2);
    fgsm_total += realised_norm(b, inputs.current_obs, Budget::Norm::kL2);
  }
  EXPECT_LT(cw_total, fgsm_total);
}

TEST(Attack, CwInvalidConfigThrows) {
  EXPECT_THROW(CwAttack(0), std::logic_error);
  EXPECT_THROW(CwAttack(5, 1.0f, 0.0f), std::logic_error);
}

TEST(Attack, LogitHelpers) {
  auto model = trained_toy_model(/*m=*/2);
  util::Rng rng(14);
  CraftInputs inputs = toy_inputs(rng);
  const auto logits = position_logits(*model, inputs, 1, inputs.current_obs);
  EXPECT_EQ(logits.size(), 2u);
  EXPECT_THROW(position_logits(*model, inputs, 2, inputs.current_obs),
               std::logic_error);
  nn::Tensor g =
      logit_diff_gradient(*model, inputs, 0, 0, 1, inputs.current_obs);
  EXPECT_TRUE(g.same_shape(inputs.current_obs));
  // Same-index difference has zero gradient.
  nn::Tensor zero =
      logit_diff_gradient(*model, inputs, 0, 1, 1, inputs.current_obs);
  for (float x : zero.data()) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(Attack, PgdInvalidConfigThrows) {
  EXPECT_THROW(PgdAttack(0, 0.1f), std::logic_error);
  EXPECT_THROW(PgdAttack(5, 0.0f), std::logic_error);
}

TEST(Attack, PredictActionsShape) {
  auto model = trained_toy_model(/*m=*/3);
  util::Rng rng(10);
  CraftInputs inputs = toy_inputs(rng);
  const auto actions = predict_actions(*model, inputs);
  EXPECT_EQ(actions.size(), 3u);
  for (std::size_t a : actions) EXPECT_LT(a, 2u);
}

/// One context answers all five queries at several distinct s_t rows.
/// Every answer after the first is served from the history encoding the
/// first query built, and each must equal the full-path free helpers' bits
/// at the same row.
void expect_context_matches_free_helpers(CraftContext& ctx,
                                         seq2seq::Seq2SeqModel& model,
                                         const CraftInputs& inputs,
                                         util::Rng& rng) {
  const std::vector<nn::Tensor> rows = {inputs.current_obs,
                                        random_tensor({1, 4}, rng),
                                        random_tensor({1, 4}, rng)};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const nn::Tensor& obs = rows[r];
    const std::vector<std::size_t> predicted = predict_actions(model, inputs);
    EXPECT_EQ(ctx.predict_actions(), predicted) << "row " << r;
    for (std::size_t position = 0; position < 2; ++position) {
      const auto cached_row = ctx.position_logits(position, obs);
      const auto full_row = position_logits(model, inputs, position, obs);
      ASSERT_EQ(cached_row.size(), full_row.size());
      for (std::size_t i = 0; i < full_row.size(); ++i)
        EXPECT_EQ(cached_row[i], full_row[i])
            << "row " << r << " position " << position << " logit " << i;

      const std::size_t action = (r + position) % 2;
      nn::Tensor cached_ce = ctx.current_obs_gradient(position, action, obs);
      nn::Tensor full_ce =
          current_obs_gradient(model, inputs, position, action, obs);
      ASSERT_TRUE(cached_ce.same_shape(full_ce));
      for (std::size_t i = 0; i < full_ce.size(); ++i)
        EXPECT_EQ(cached_ce[i], full_ce[i])
            << "row " << r << " position " << position << " CE grad " << i;

      nn::Tensor cached_diff = ctx.logit_diff_gradient(position, 0, 1, obs);
      nn::Tensor full_diff =
          logit_diff_gradient(model, inputs, position, 0, 1, obs);
      ASSERT_TRUE(cached_diff.same_shape(full_diff));
      for (std::size_t i = 0; i < full_diff.size(); ++i)
        EXPECT_EQ(cached_diff[i], full_diff[i])
            << "row " << r << " position " << position << " diff grad " << i;

      // The fused anchor probe: the clean prediction and the CE gradient
      // against its action at `position`, from one tail pass.
      auto [anchored, anchor_grad] =
          ctx.anchored_gradient(position, inputs.current_obs);
      EXPECT_EQ(anchored, predicted) << "row " << r;
      nn::Tensor full_anchor = current_obs_gradient(
          model, inputs, position, predicted[position], inputs.current_obs);
      ASSERT_TRUE(anchor_grad.same_shape(full_anchor));
      for (std::size_t i = 0; i < full_anchor.size(); ++i)
        EXPECT_EQ(anchor_grad[i], full_anchor[i])
            << "row " << r << " position " << position << " anchor grad "
            << i;
    }
  }
  // Out-of-range goal positions fail before any query is answered.
  EXPECT_THROW(ctx.anchored_gradient(2, inputs.current_obs), std::logic_error);
  EXPECT_THROW(ctx.current_obs_gradient(0, 2, inputs.current_obs),
               std::logic_error);
}

TEST(Attack, CraftContextMatchesFreeHelpersBitExactly) {
  auto model = trained_toy_model(/*m=*/2);
  util::Rng rng(21);
  CraftInputs inputs = toy_inputs(rng);
  {
    SCOPED_TRACE("planner-less context");
    CraftContext ctx(*model, inputs);
    expect_context_matches_free_helpers(ctx, *model, inputs, rng);
  }
  {
    // A one-fiber rendezvous flushes after every submit.
    SCOPED_TRACE("context over a one-fiber planner");
    BatchedCraftPlanner planner(*model);
    planner.run(1, [&](std::size_t) {
      CraftContext ctx(planner, inputs);
      expect_context_matches_free_helpers(ctx, *model, inputs, rng);
    });
  }
}

}  // namespace
}  // namespace rlattack::attack
