// Seq2seq approximator: shapes, gradients (incl. the attack-surface
// gradient w.r.t. the current observation), dataset assembly and the
// Algorithm-1 trainer on a scripted expert.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>

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

/// The craft-context cache contract: forward_cached over one encoding must
/// reproduce the full forward bit for bit, and backward_to_current must
/// return exactly backward(g).current_obs — for every decoder variant and
/// observation kind, and across repeated reuse of the same encoding.
void expect_cached_path_bit_identical(const Seq2SeqConfig& cfg,
                                      std::uint64_t seed) {
  Seq2SeqModel model(cfg, seed);
  util::Rng rng(seed + 1);
  const std::size_t b = 2;
  nn::Tensor actions =
      random_tensor({b, cfg.input_steps, cfg.actions}, rng);
  nn::Tensor obs = random_tensor({b, cfg.input_steps, cfg.frame_size()}, rng);
  nn::Tensor current = random_tensor({b, cfg.frame_size()}, rng);
  nn::Tensor grad_logits =
      random_tensor({b, cfg.output_steps, cfg.actions}, rng);

  nn::Tensor full_logits = model.forward(actions, obs, current);
  model.zero_grad();
  nn::Tensor full_grad = model.backward(grad_logits).current_obs;
  model.zero_grad();

  HistoryEncoding cache = model.encode_history(actions, obs);
  ASSERT_TRUE(cache.valid());
  // Three rounds over one encoding — the PGD reuse pattern.
  for (int round = 0; round < 3; ++round) {
    nn::Tensor logits = model.forward_cached(cache, current);
    ASSERT_TRUE(logits.same_shape(full_logits));
    for (std::size_t i = 0; i < logits.size(); ++i)
      ASSERT_EQ(logits[i], full_logits[i])
          << "cached logit differs at " << i << " (round " << round << ")";
    model.zero_grad();
    nn::Tensor grad = model.backward_to_current(grad_logits);
    model.zero_grad();
    ASSERT_TRUE(grad.same_shape(full_grad));
    for (std::size_t i = 0; i < grad.size(); ++i)
      ASSERT_EQ(grad[i], full_grad[i])
          << "cached current-obs grad differs at " << i << " (round "
          << round << ")";
  }
}

/// The attention-GEMM contract: the batched-GEMM formulation of the
/// attention decoder must reproduce the retained scalar per-(b, t) loops bit
/// for bit — logits, every input gradient, and every parameter gradient —
/// on both the full and the cached craft path. Exact equality is defined
/// under the scalar GEMM kernel (the AVX2 kernel's FMA rounds once per term,
/// so across SIMD kernels results agree only to rounding).
struct AttnGemmGuard {
  nn::kernels::SimdKernel saved_kernel = nn::kernels::active_simd_kernel();
  bool saved_gemm = attention_gemm_enabled();
  ~AttnGemmGuard() {
    nn::kernels::set_simd_kernel(saved_kernel);
    set_attention_gemm_enabled(saved_gemm);
  }
};

void expect_attention_gemm_bit_identical(const Seq2SeqConfig& cfg,
                                         std::uint64_t seed) {
  AttnGemmGuard guard;
  nn::kernels::set_simd_kernel(nn::kernels::SimdKernel::kScalar);
  Seq2SeqModel model(cfg, seed);
  util::Rng rng(seed + 1);
  const std::size_t b = 2;
  nn::Tensor actions = random_tensor({b, cfg.input_steps, cfg.actions}, rng);
  nn::Tensor obs = random_tensor({b, cfg.input_steps, cfg.frame_size()}, rng);
  nn::Tensor current = random_tensor({b, cfg.frame_size()}, rng);
  nn::Tensor grad_logits =
      random_tensor({b, cfg.output_steps, cfg.actions}, rng);

  struct PathResult {
    nn::Tensor logits, ga, go, gc;
    std::vector<nn::Tensor> param_grads;
    nn::Tensor cached_logits, cached_grad;
  };
  auto run = [&](bool gemm) {
    set_attention_gemm_enabled(gemm);
    PathResult r;
    r.logits = model.forward(actions, obs, current);
    model.zero_grad();
    auto grads = model.backward(grad_logits);
    r.ga = std::move(grads.action_history);
    r.go = std::move(grads.obs_history);
    r.gc = std::move(grads.current_obs);
    for (const nn::Param& p : model.params()) r.param_grads.push_back(*p.grad);
    model.zero_grad();
    HistoryEncoding cache = model.encode_history(actions, obs);
    r.cached_logits = model.forward_cached(cache, current);
    r.cached_grad = model.backward_to_current(grad_logits);
    model.zero_grad();
    return r;
  };
  PathResult gemm = run(true);
  PathResult scalar = run(false);

  auto expect_bits = [](const nn::Tensor& got, const nn::Tensor& want,
                        const char* what) {
    ASSERT_TRUE(got.same_shape(want)) << what;
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << what << " differs at " << i;
  };
  expect_bits(gemm.logits, scalar.logits, "logits");
  expect_bits(gemm.ga, scalar.ga, "action-history grad");
  expect_bits(gemm.go, scalar.go, "obs-history grad");
  expect_bits(gemm.gc, scalar.gc, "current-obs grad");
  expect_bits(gemm.cached_logits, scalar.cached_logits, "cached logits");
  expect_bits(gemm.cached_grad, scalar.cached_grad, "cached current grad");
  ASSERT_EQ(gemm.param_grads.size(), scalar.param_grads.size());
  const auto& params = model.params();
  for (std::size_t i = 0; i < gemm.param_grads.size(); ++i)
    expect_bits(gemm.param_grads[i], scalar.param_grads[i],
                params[i].name.c_str());
}

TEST(Seq2SeqAttentionGemm, AttentionVectorBitIdentical) {
  Seq2SeqConfig cfg = tiny_config(3, 2);
  cfg.use_attention = true;
  expect_attention_gemm_bit_identical(cfg, 15);
}

TEST(Seq2SeqAttentionGemm, AttentionImageBitIdentical) {
  Seq2SeqConfig cfg =
      make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  cfg.use_attention = true;
  expect_attention_gemm_bit_identical(cfg, 16);
}

TEST(Seq2SeqAttentionGemm, PoolingVectorBitIdentical) {
  // Pooling decoders never touch the attention code; the toggle must be a
  // strict no-op for them.
  expect_attention_gemm_bit_identical(tiny_config(3, 2), 17);
}

TEST(Seq2SeqAttentionGemm, PoolingImageBitIdentical) {
  Seq2SeqConfig cfg =
      make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  expect_attention_gemm_bit_identical(cfg, 18);
}

TEST(Seq2SeqCraftCache, PoolingVectorBitIdentical) {
  expect_cached_path_bit_identical(tiny_config(3, 2), 11);
}

TEST(Seq2SeqCraftCache, AttentionVectorBitIdentical) {
  Seq2SeqConfig cfg = tiny_config(3, 2);
  cfg.use_attention = true;
  expect_cached_path_bit_identical(cfg, 12);
}

TEST(Seq2SeqCraftCache, PoolingImageBitIdentical) {
  Seq2SeqConfig cfg =
      make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  expect_cached_path_bit_identical(cfg, 13);
}

TEST(Seq2SeqCraftCache, AttentionImageBitIdentical) {
  Seq2SeqConfig cfg =
      make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  cfg.use_attention = true;
  expect_cached_path_bit_identical(cfg, 14);
}

/// Crafting differentiates a frozen approximator: the truncated backward,
/// single-row and batched, and the crafts built on it — a PGD craft through
/// a serial CraftContext and one two-participant BatchedCraftPlanner round
/// — must neither read nor write any parameter gradient. Every gradient
/// holds a sentinel before and must hold it bit for bit after each step.
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

  HistoryEncoding enc_first =
      model.encode_history(first.action_history, first.obs_history);
  model.forward_cached(enc_first, first.current_obs);
  model.backward_to_current(random_tensor({1, m, a}, rng));
  expect_grads_hold_sentinel(model, "backward_to_current");

  HistoryEncoding enc_second =
      model.encode_history(second.action_history, second.obs_history);
  nn::Tensor rows({2, f});
  std::copy_n(first.current_obs.raw(), f, rows.raw());
  std::copy_n(second.current_obs.raw(), f, rows.raw() + f);
  model.forward_cached_batch({&enc_first, &enc_second}, rows);
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
  expect_grads_hold_sentinel(model, "a serial PGD craft");

  // Both participants enroll before either probes, so the two gradient
  // probes flush together as one two-row round.
  attack::BatchedCraftPlanner planner(model);
  attack::BatchedCraftPlanner::Participant p_first(planner);
  attack::BatchedCraftPlanner::Participant p_second(planner);
  auto probe = [&planner](const attack::CraftInputs& in,
                          attack::BatchedCraftPlanner::Participant& me) {
    attack::CraftContext ctx(planner, in);
    (void)ctx.current_obs_gradient(0, 0, in.current_obs);
    me.retire();
  };
  std::thread other(probe, std::cref(second), std::ref(p_second));
  probe(first, p_first);
  other.join();
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
