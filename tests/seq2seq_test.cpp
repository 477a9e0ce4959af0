// Seq2seq approximator: shapes, gradients (incl. the attack-surface
// gradient w.r.t. the current observation), dataset assembly and the
// Algorithm-1 trainer on a scripted expert.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "attention_reference.hpp"
#include "gradcheck.hpp"
#include "rlattack/attack/attack.hpp"
#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/nn/loss.hpp"
#include "rlattack/seq2seq/dataset.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/seq2seq/trainer.hpp"

namespace rlattack::seq2seq {
namespace {

using rlattack::testing::random_tensor;
using rlattack::testing::rel_err;

Seq2SeqConfig tiny_config(std::size_t n = 3, std::size_t m = 2) {
  Seq2SeqConfig c;
  c.input_steps = n;
  c.output_steps = m;
  c.actions = 2;
  c.frame_shape = {4};
  c.embed = 8;
  c.lstm_hidden = 6;
  return c;
}

TEST(Seq2SeqModel, OutputShape) {
  Seq2SeqModel model(tiny_config(), 1);
  util::Rng rng(1);
  nn::Tensor logits = model.forward(random_tensor({2, 3, 2}, rng),
                                    random_tensor({2, 3, 4}, rng),
                                    random_tensor({2, 4}, rng));
  EXPECT_EQ(logits.dim(0), 2u);
  EXPECT_EQ(logits.dim(1), 2u);
  EXPECT_EQ(logits.dim(2), 2u);
}

TEST(Seq2SeqModel, RejectsBadShapes) {
  Seq2SeqModel model(tiny_config(), 1);
  util::Rng rng(1);
  nn::Tensor good_a = random_tensor({1, 3, 2}, rng);
  nn::Tensor good_s = random_tensor({1, 3, 4}, rng);
  nn::Tensor good_c = random_tensor({1, 4}, rng);
  EXPECT_THROW(model.forward(random_tensor({1, 4, 2}, rng), good_s, good_c),
               std::logic_error);
  EXPECT_THROW(model.forward(good_a, random_tensor({1, 3, 5}, rng), good_c),
               std::logic_error);
  EXPECT_THROW(model.forward(good_a, good_s, random_tensor({2, 4}, rng)),
               std::logic_error);
}

TEST(Seq2SeqModel, DecoderProducesDistinctStepLogits) {
  // The RepeatVector -> LSTM decoder must not collapse the m outputs into
  // identical rows (this is exactly why the decoder is recurrent).
  Seq2SeqModel model(tiny_config(3, 4), 7);
  util::Rng rng(2);
  nn::Tensor logits = model.forward(random_tensor({1, 3, 2}, rng),
                                    random_tensor({1, 3, 4}, rng),
                                    random_tensor({1, 4}, rng));
  bool distinct = false;
  for (std::size_t t = 1; t < 4; ++t)
    for (std::size_t a = 0; a < 2; ++a)
      if (logits.at3(0, t, a) != logits.at3(0, 0, a)) distinct = true;
  EXPECT_TRUE(distinct);
}

TEST(Seq2SeqModel, CurrentObsGradientMatchesFiniteDifference) {
  // The FGSM/PGD attack surface: d CE / d s_t must be numerically correct.
  Seq2SeqConfig cfg = tiny_config(2, 2);
  Seq2SeqModel model(cfg, 3);
  util::Rng rng(3);
  nn::Tensor actions = random_tensor({1, 2, 2}, rng);
  nn::Tensor obs = random_tensor({1, 2, 4}, rng);
  nn::Tensor current = random_tensor({1, 4}, rng);
  std::vector<std::size_t> targets{1, 0};

  nn::Tensor logits = model.forward(actions, obs, current);
  auto loss = nn::softmax_cross_entropy(logits, targets);
  auto grads = model.backward(loss.grad);
  ASSERT_TRUE(grads.current_obs.same_shape(current));

  const float eps = 5e-3f;
  for (std::size_t i = 0; i < current.size(); ++i) {
    const float orig = current[i];
    current[i] = orig + eps;
    const float up =
        nn::softmax_cross_entropy(model.forward(actions, obs, current),
                                  targets)
            .loss;
    current[i] = orig - eps;
    const float down =
        nn::softmax_cross_entropy(model.forward(actions, obs, current),
                                  targets)
            .loss;
    current[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_LT(rel_err(grads.current_obs[i], numeric), 3e-2)
        << "current-obs grad mismatch at " << i;
  }
}

TEST(Seq2SeqModel, HistoryGradientsHaveRightShapes) {
  Seq2SeqModel model(tiny_config(3, 1), 4);
  util::Rng rng(4);
  nn::Tensor actions = random_tensor({2, 3, 2}, rng);
  nn::Tensor obs = random_tensor({2, 3, 4}, rng);
  nn::Tensor current = random_tensor({2, 4}, rng);
  nn::Tensor logits = model.forward(actions, obs, current);
  auto grads = model.backward(random_tensor(logits.shape(), rng));
  EXPECT_TRUE(grads.action_history.same_shape(actions));
  EXPECT_TRUE(grads.obs_history.same_shape(obs));
}

TEST(Seq2SeqModel, ImageConfigForwardAndGradient) {
  Seq2SeqConfig cfg =
      make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  Seq2SeqModel model(cfg, 5);
  util::Rng rng(5);
  nn::Tensor actions = random_tensor({1, 2, 3}, rng);
  nn::Tensor obs = random_tensor({1, 2, 64}, rng);
  nn::Tensor current = random_tensor({1, 64}, rng);
  nn::Tensor logits = model.forward(actions, obs, current);
  EXPECT_EQ(logits.dim(2), 3u);
  auto grads = model.backward(random_tensor(logits.shape(), rng));
  EXPECT_TRUE(grads.current_obs.same_shape(current));
}

/// The attention-GEMM contract: the GEMM formulation of the attention
/// decoder (seq2seq::attention) must reproduce the scalar per-(b, t) loops
/// of tests/attention_reference.hpp bit for bit — the key projection, the
/// mix forward (alpha and the concat rows) and the mix backward (decoder,
/// encoder, key and W_a gradients). Exact equality is defined under the
/// scalar GEMM kernel (the AVX2 kernel's FMA rounds once per term, so
/// across SIMD kernels results agree only to rounding).
struct ScalarKernelGuard {
  nn::kernels::SimdKernel saved = nn::kernels::active_simd_kernel();
  ScalarKernelGuard() {
    nn::kernels::set_simd_kernel(nn::kernels::SimdKernel::kScalar);
  }
  ~ScalarKernelGuard() { nn::kernels::set_simd_kernel(saved); }
};

void expect_bits(const nn::Tensor& got, const nn::Tensor& want,
                 const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << what << " differs at " << i;
}

struct AttentionShape {
  std::size_t b, n, m, e, h;
};

// Prints the fields into the ctest names gtest_discover_tests registers.
void PrintTo(const AttentionShape& s, std::ostream* os) {
  *os << "B " << s.b << " n " << s.n << " m " << s.m << " E " << s.e
      << " H " << s.h;
}

class Seq2SeqAttentionGemm : public ::testing::TestWithParam<AttentionShape> {
 protected:
  void SetUp() override {
    const AttentionShape& s = GetParam();
    util::Rng rng(s.b * 1000 + s.n * 100 + s.m * 10 + s.e + s.h);
    encoder = random_tensor({s.b, s.n, s.h}, rng);
    w = random_tensor({s.e, s.h}, rng);
    decoder = random_tensor({s.b, s.m, s.e}, rng);
    grad_concat = random_tensor({s.b, s.m, s.e + s.h}, rng);
    keys = testing::attention_ref::project_keys(encoder, w);
  }
  ScalarKernelGuard guard;
  nn::Tensor encoder, w, decoder, grad_concat, keys;
};

TEST_P(Seq2SeqAttentionGemm, KeyProjectionMatchesScalarReference) {
  expect_bits(attention::project_keys(encoder, w), keys, "keys");
}

TEST_P(Seq2SeqAttentionGemm, MixForwardMatchesScalarReference) {
  nn::Tensor alpha, ref_alpha;
  const nn::Tensor concat =
      attention::mix_forward(decoder, encoder, keys, alpha);
  const nn::Tensor ref_concat =
      testing::attention_ref::mix_forward(decoder, encoder, keys, ref_alpha);
  expect_bits(alpha, ref_alpha, "alpha");
  expect_bits(concat, ref_concat, "concat rows");
}

TEST_P(Seq2SeqAttentionGemm, MixBackwardMatchesScalarReference) {
  nn::Tensor alpha;
  (void)testing::attention_ref::mix_forward(decoder, encoder, keys, alpha);
  // As in the model's full backward: the mix fills zeroed encoder and key
  // gradients, then the key projection adds into the encoder gradient and
  // into W_a's gradient, which already holds an earlier batch's sum.
  util::Rng rng(7);
  const nn::Tensor w_grad_before = random_tensor(w.shape(), rng);
  nn::Tensor ge(encoder.shape()), gk(keys.shape()), gw = w_grad_before;
  nn::Tensor ref_ge(encoder.shape()), ref_gk(keys.shape()),
      ref_gw = w_grad_before;
  const nn::Tensor gd = attention::mix_backward(grad_concat, decoder, encoder,
                                                keys, alpha, &ge, &gk);
  const nn::Tensor ref_gd = testing::attention_ref::mix_backward(
      grad_concat, decoder, encoder, keys, alpha, &ref_ge, &ref_gk);
  expect_bits(gd, ref_gd, "decoder grad");
  expect_bits(gk, ref_gk, "key grad");
  expect_bits(ge, ref_ge, "encoder grad (context sum)");
  attention::project_keys_backward(gk, encoder, w, gw, ge);
  testing::attention_ref::project_keys_backward(ref_gk, encoder, w, ref_gw,
                                                ref_ge);
  expect_bits(gw, ref_gw, "W_a grad");
  expect_bits(ge, ref_ge, "encoder grad");
  // The truncated craft backward skips the history branch and returns the
  // same decoder gradient.
  expect_bits(attention::mix_backward(grad_concat, decoder, encoder, keys,
                                      alpha, nullptr, nullptr),
              ref_gd, "truncated decoder grad");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Seq2SeqAttentionGemm,
    ::testing::Values(AttentionShape{2, 3, 2, 8, 6},      // tiny_config
                      AttentionShape{3, 10, 10, 64, 48},  // Atari preset
                      AttentionShape{1, 4, 1, 5, 7}));

/// Crafting differentiates a frozen approximator: the truncated batched
/// backward and the crafts built on it — a PGD craft through a planner-less
/// CraftContext and one two-fiber BatchedCraftPlanner round — must
/// neither read nor write any parameter gradient. Every gradient holds a
/// sentinel before and must hold it bit for bit after each step.
class Seq2SeqCraftCacheParamGrads
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

constexpr float kGradSentinel = 1234.5f;

void expect_grads_hold_sentinel(Seq2SeqModel& model, const char* step) {
  const auto want = std::bit_cast<std::uint32_t>(kGradSentinel);
  for (const nn::Param& p : model.params())
    for (std::size_t i = 0; i < p.grad->size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>((*p.grad)[i]), want)
          << p.name << "[" << i << "] written by " << step;
}

TEST_P(Seq2SeqCraftCacheParamGrads, CraftingLeavesEveryParameterGradient) {
  const auto [attention, image] = GetParam();
  Seq2SeqConfig cfg =
      image ? make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2)
            : tiny_config(3, 2);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  cfg.use_attention = attention;
  Seq2SeqModel model(cfg, 15);
  util::Rng rng(16);
  const std::size_t n = cfg.input_steps, m = cfg.output_steps,
                    a = cfg.actions, f = cfg.frame_size();
  auto make_inputs = [&] {
    attack::CraftInputs in;
    in.action_history = random_tensor({1, n, a}, rng);
    in.obs_history = random_tensor({1, n, f}, rng);
    in.current_obs = random_tensor({1, f}, rng);
    return in;
  };
  const attack::CraftInputs first = make_inputs();
  const attack::CraftInputs second = make_inputs();
  for (const nn::Param& p : model.params()) p.grad->fill(kGradSentinel);

  nn::Tensor actions({2, n, a}), observations({2, n, f}), rows({2, f});
  for (std::size_t r = 0; r < 2; ++r) {
    const attack::CraftInputs& in = r == 0 ? first : second;
    std::copy_n(in.action_history.raw(), n * a, actions.raw() + r * n * a);
    std::copy_n(in.obs_history.raw(), n * f, observations.raw() + r * n * f);
    std::copy_n(in.current_obs.raw(), f, rows.raw() + r * f);
  }
  std::vector<HistoryEncoding> encodings =
      model.encode_history_batch(actions, observations);
  model.forward_cached_batch({&encodings[0], &encodings[1]}, rows);
  model.backward_to_current_batch(random_tensor({2, m, a}, rng));
  expect_grads_hold_sentinel(model, "backward_to_current_batch");

  {
    attack::CraftContext ctx(model, first);
    attack::Goal goal;
    goal.position = m - 1;
    util::Rng craft_rng(17);
    attack::PgdAttack().perturb(ctx, goal, attack::Budget{},
                                {-5.0f, 5.0f}, craft_rng);
  }
  expect_grads_hold_sentinel(model, "a planner-less PGD craft");

  // Two fibers of one rendezvous: both gradient probes are pending when the
  // scheduler flushes, so they resolve together as one two-row round.
  attack::BatchedCraftPlanner planner(model);
  planner.run(2, [&](std::size_t fiber) {
    const attack::CraftInputs& in = fiber == 0 ? first : second;
    attack::CraftContext ctx(planner, in);
    (void)ctx.current_obs_gradient(0, 0, in.current_obs);
  });
  expect_grads_hold_sentinel(model, "a planner round");
}

std::string variant_name(
    const ::testing::TestParamInfo<std::tuple<bool, bool>>& param_info) {
  const auto [attention, image] = param_info.param;
  return std::string(attention ? "Attention" : "Pooling") +
         (image ? "Image" : "Vector");
}

INSTANTIATE_TEST_SUITE_P(Variants, Seq2SeqCraftCacheParamGrads,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()),
                         variant_name);

TEST(Seq2SeqModel, ParamsCoverAllHeads) {
  Seq2SeqModel model(tiny_config(), 1);
  bool has_action = false, has_obs = false, has_current = false,
       has_decoder = false;
  for (const auto& p : model.params()) {
    if (p.name.rfind("action_head", 0) == 0) has_action = true;
    if (p.name.rfind("obs_head", 0) == 0) has_obs = true;
    if (p.name.rfind("current_head", 0) == 0) has_current = true;
    if (p.name.rfind("decoder", 0) == 0) has_decoder = true;
  }
  EXPECT_TRUE(has_action && has_obs && has_current && has_decoder);
}

/// Builds synthetic episodes from a scripted "expert" whose action is a
/// deterministic function of the observation: a_t = (obs[0] > 0).
std::vector<env::Episode> scripted_episodes(std::size_t count,
                                            std::size_t length,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<env::Episode> episodes(count);
  for (auto& ep : episodes) {
    for (std::size_t t = 0; t < length; ++t) {
      env::Transition tr;
      tr.observation = nn::Tensor({4});
      for (float& x : tr.observation.data()) x = rng.normal_f(0.0f, 1.0f);
      tr.action = tr.observation[0] > 0.0f ? 1u : 0u;
      tr.reward = 1.0;
      tr.done = t + 1 == length;
      ep.steps.push_back(std::move(tr));
    }
  }
  return episodes;
}

TEST(Seq2SeqAttention, OutputShapeAndDistinctSteps) {
  Seq2SeqConfig cfg = tiny_config(3, 4);
  cfg.use_attention = true;
  Seq2SeqModel model(cfg, 7);
  util::Rng rng(2);
  nn::Tensor logits = model.forward(random_tensor({2, 3, 2}, rng),
                                    random_tensor({2, 3, 4}, rng),
                                    random_tensor({2, 4}, rng));
  EXPECT_EQ(logits.dim(0), 2u);
  EXPECT_EQ(logits.dim(1), 4u);
  EXPECT_EQ(logits.dim(2), 2u);
  bool distinct = false;
  for (std::size_t t = 1; t < 4; ++t)
    for (std::size_t a = 0; a < 2; ++a)
      if (logits.at3(0, t, a) != logits.at3(0, 0, a)) distinct = true;
  EXPECT_TRUE(distinct);
}

TEST(Seq2SeqAttention, AllInputGradientsMatchFiniteDifference) {
  // The attention path has a fully hand-derived backward (softmax over
  // scores, context sums, key projection); verify every input gradient
  // numerically.
  Seq2SeqConfig cfg = tiny_config(3, 2);
  cfg.use_attention = true;
  Seq2SeqModel model(cfg, 3);
  util::Rng rng(3);
  nn::Tensor actions = random_tensor({1, 3, 2}, rng);
  nn::Tensor obs = random_tensor({1, 3, 4}, rng);
  nn::Tensor current = random_tensor({1, 4}, rng);
  std::vector<std::size_t> targets{1, 0};

  nn::Tensor logits = model.forward(actions, obs, current);
  auto loss = nn::softmax_cross_entropy(logits, targets);
  auto grads = model.backward(loss.grad);

  const float eps = 5e-3f;
  auto probe = [&]() {
    return nn::softmax_cross_entropy(model.forward(actions, obs, current),
                                     targets)
        .loss;
  };
  auto check = [&](nn::Tensor& input, const nn::Tensor& analytic,
                   const char* label) {
    ASSERT_TRUE(analytic.same_shape(input)) << label;
    for (std::size_t i = 0; i < input.size(); ++i) {
      const float orig = input[i];
      input[i] = orig + eps;
      const float up = probe();
      input[i] = orig - eps;
      const float down = probe();
      input[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_LT(rel_err(analytic[i], numeric), 4e-2)
          << label << " grad mismatch at " << i;
    }
  };
  check(current, grads.current_obs, "current_obs");
  check(obs, grads.obs_history, "obs_history");
  check(actions, grads.action_history, "action_history");
}

TEST(Seq2SeqAttention, AttentionParamGradientMatchesFiniteDifference) {
  Seq2SeqConfig cfg = tiny_config(3, 2);
  cfg.use_attention = true;
  Seq2SeqModel model(cfg, 4);
  util::Rng rng(4);
  nn::Tensor actions = random_tensor({1, 3, 2}, rng);
  nn::Tensor obs = random_tensor({1, 3, 4}, rng);
  nn::Tensor current = random_tensor({1, 4}, rng);
  std::vector<std::size_t> targets{0, 1};

  model.zero_grad();
  auto loss = nn::softmax_cross_entropy(model.forward(actions, obs, current),
                                        targets);
  model.backward(loss.grad);

  nn::Param attn{};
  for (auto& p : model.params())
    if (p.name == "attention.w") attn = p;
  ASSERT_NE(attn.value, nullptr);

  const float eps = 5e-3f;
  for (std::size_t i = 0; i < attn.value->size(); i += 3) {
    const float orig = (*attn.value)[i];
    (*attn.value)[i] = orig + eps;
    const float up = nn::softmax_cross_entropy(
                         model.forward(actions, obs, current), targets)
                         .loss;
    (*attn.value)[i] = orig - eps;
    const float down = nn::softmax_cross_entropy(
                           model.forward(actions, obs, current), targets)
                           .loss;
    (*attn.value)[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_LT(rel_err((*attn.grad)[i], numeric), 4e-2)
        << "attention.w grad mismatch at " << i;
  }
}

TEST(Seq2SeqAttention, LearnsScriptedExpert) {
  auto episodes = scripted_episodes(20, 30, 4);
  Seq2SeqConfig cfg = tiny_config(3, 1);
  cfg.embed = 16;
  cfg.lstm_hidden = 12;
  cfg.use_attention = true;
  EpisodeDataset ds(episodes, cfg.input_steps, cfg.output_steps, 4, 2);
  util::Rng rng(6);
  auto [train, eval] = ds.split(0.9, rng);
  Seq2SeqModel model(cfg, 7);
  TrainSettings settings;
  settings.epochs = 30;
  settings.batches_per_epoch = 16;
  TrainOutcome outcome = train_seq2seq(model, ds, train, eval, settings, rng);
  EXPECT_GT(outcome.eval_accuracy, 0.9);
}

TEST(EpisodeDataset, SampleCountMatchesWindows) {
  auto episodes = scripted_episodes(2, 10, 1);
  EpisodeDataset ds(episodes, /*n=*/3, /*m=*/2, /*frame=*/4, /*actions=*/2);
  // Valid t in [3, 8] inclusive per episode: 6 windows each.
  EXPECT_EQ(ds.size(), 12u);
}

TEST(EpisodeDataset, ShortEpisodesSkipped) {
  auto episodes = scripted_episodes(1, 4, 1);
  EpisodeDataset ds(episodes, 3, 2, 4, 2);
  EXPECT_TRUE(ds.empty());
}

TEST(EpisodeDataset, MaterializeAlignment) {
  auto episodes = scripted_episodes(1, 8, 2);
  EpisodeDataset ds(episodes, 2, 2, 4, 2);
  std::vector<std::size_t> first{0};  // t = 2
  Batch batch = ds.materialize(first);
  const auto& steps = episodes[0].steps;
  // Action history = one-hot of a_0, a_1.
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_FLOAT_EQ(batch.action_history.at3(0, i, steps[i].action), 1.0f);
  // Observation history rows are s_0, s_1; current is s_2.
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t f = 0; f < 4; ++f)
      EXPECT_FLOAT_EQ(batch.obs_history.at3(0, i, f),
                      steps[i].observation[f]);
  for (std::size_t f = 0; f < 4; ++f)
    EXPECT_FLOAT_EQ(batch.current_obs.at2(0, f), steps[2].observation[f]);
  // Targets are a_2, a_3.
  EXPECT_EQ(batch.targets[0], steps[2].action);
  EXPECT_EQ(batch.targets[1], steps[3].action);
}

TEST(EpisodeDataset, FrameExtractionTakesNewest) {
  // Stacked observations: the newest frame is the tail slice.
  env::Episode ep;
  for (std::size_t t = 0; t < 6; ++t) {
    env::Transition tr;
    tr.observation = nn::Tensor({8});  // stacked 2 x frame of 4
    for (std::size_t i = 0; i < 8; ++i)
      tr.observation[i] = static_cast<float>(t * 10 + i);
    tr.action = 0;
    ep.steps.push_back(std::move(tr));
  }
  std::vector<env::Episode> episodes{ep};
  EpisodeDataset ds(episodes, 2, 1, /*frame=*/4, 2);
  Batch batch = ds.materialize(std::vector<std::size_t>{0});
  // Current frame for t = 2 must be elements [4..8) of step 2.
  for (std::size_t f = 0; f < 4; ++f)
    EXPECT_FLOAT_EQ(batch.current_obs.at2(0, f),
                    static_cast<float>(20 + 4 + f));
}

TEST(EpisodeDataset, SplitPartitionsAllSamples) {
  auto episodes = scripted_episodes(3, 12, 3);
  EpisodeDataset ds(episodes, 2, 1, 4, 2);
  util::Rng rng(1);
  auto [train, eval] = ds.split(0.9, rng);
  EXPECT_EQ(train.size() + eval.size(), ds.size());
  EXPECT_GT(eval.size(), 0u);
  std::vector<bool> seen(ds.size(), false);
  for (std::size_t i : train) seen[i] = true;
  for (std::size_t i : eval) {
    EXPECT_FALSE(seen[i]);  // disjoint
    seen[i] = true;
  }
}

TEST(Trainer, LearnsScriptedExpert) {
  // The approximator must reach high accuracy on a policy that is a simple
  // function of the current observation — the core claim of Section 5.2 in
  // miniature.
  auto episodes = scripted_episodes(20, 30, 4);
  Seq2SeqConfig cfg = tiny_config(3, 1);
  cfg.embed = 16;
  cfg.lstm_hidden = 12;
  EpisodeDataset ds(episodes, cfg.input_steps, cfg.output_steps, 4, 2);
  util::Rng rng(5);
  auto [train, eval] = ds.split(0.9, rng);
  Seq2SeqModel model(cfg, 6);
  TrainSettings settings;
  settings.epochs = 30;
  settings.batches_per_epoch = 16;
  TrainOutcome outcome = train_seq2seq(model, ds, train, eval, settings, rng);
  EXPECT_GT(outcome.eval_accuracy, 0.9);
}

TEST(Trainer, SequenceOutputLearnsMarkovExpert) {
  // Expert action depends only on s_t, and s is iid noise, so predicting
  // a_t (position 0) is learnable while far future actions are coin flips:
  // per-action accuracy should land clearly above 0.5 but below the
  // single-step model's ceiling.
  auto episodes = scripted_episodes(20, 30, 7);
  Seq2SeqConfig cfg = tiny_config(3, 4);
  cfg.embed = 16;
  EpisodeDataset ds(episodes, cfg.input_steps, cfg.output_steps, 4, 2);
  util::Rng rng(8);
  auto [train, eval] = ds.split(0.9, rng);
  Seq2SeqModel model(cfg, 9);
  TrainSettings settings;
  settings.epochs = 20;
  settings.batches_per_epoch = 16;
  TrainOutcome outcome = train_seq2seq(model, ds, train, eval, settings, rng);
  EXPECT_GT(outcome.eval_accuracy, 0.55);
}

TEST(Trainer, LengthSearchPicksWorkingLength) {
  auto episodes = scripted_episodes(10, 25, 9);
  auto make_config = [](std::size_t n) {
    Seq2SeqConfig cfg = tiny_config(n, 1);
    return cfg;
  };
  TrainSettings settings;
  settings.epochs = 100;  // probe budget = 1 epoch
  settings.batches_per_epoch = 8;
  std::vector<std::size_t> candidates{2, 4, 30};  // 30 yields no samples
  LengthSearchResult result = search_input_length(
      episodes, candidates, make_config, settings, 10);
  EXPECT_TRUE(result.best_length == 2 || result.best_length == 4);
  EXPECT_EQ(result.probes.size(), 2u);  // the n = 30 candidate was skipped
}

TEST(Trainer, BuildApproximatorEndToEnd) {
  auto episodes = scripted_episodes(12, 25, 11);
  auto make_config = [](std::size_t n) { return tiny_config(n, 1); };
  TrainSettings settings;
  settings.epochs = 15;
  settings.batches_per_epoch = 8;
  std::vector<std::size_t> candidates{2, 4};
  ApproximatorResult result = build_approximator(
      episodes, candidates, make_config, settings, 12);
  ASSERT_NE(result.model, nullptr);
  EXPECT_GT(result.outcome.eval_accuracy, 0.7);
  EXPECT_EQ(result.model->config().input_steps, result.search.best_length);
}

TEST(Trainer, EmptyCandidatesThrow) {
  auto episodes = scripted_episodes(2, 10, 1);
  auto make_config = [](std::size_t n) { return tiny_config(n, 1); };
  EXPECT_THROW(search_input_length(episodes, {}, make_config,
                                   TrainSettings{}, 1),
               std::logic_error);
}

}  // namespace
}  // namespace rlattack::seq2seq
