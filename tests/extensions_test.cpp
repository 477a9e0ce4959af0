// Extension features: observation-noise training wrapper, attack stride.
#include <gtest/gtest.h>

#include "rlattack/core/pipeline.hpp"
#include "rlattack/env/cartpole.hpp"
#include "rlattack/env/mini_pong.hpp"
#include "rlattack/env/noisy_obs.hpp"
#include "rlattack/rl/factory.hpp"
#include "rlattack/rl/q_agent.hpp"
#include "rlattack/seq2seq/model.hpp"

namespace rlattack {
namespace {

TEST(NoisyObs, PreservesInterface) {
  env::NoisyObservationWrapper env(
      std::make_unique<env::CartPole>(env::CartPole::Config{}, 1), 0.1f, 1);
  EXPECT_EQ(env.action_count(), 2u);
  EXPECT_EQ(env.observation_shape(), std::vector<std::size_t>{4});
  EXPECT_EQ(env.name(), "cartpole_noisy");
}

TEST(NoisyObs, InjectsNoise) {
  // Same seed, one wrapped one not: observations must differ.
  env::CartPole clean(env::CartPole::Config{}, 7);
  env::NoisyObservationWrapper noisy(
      std::make_unique<env::CartPole>(env::CartPole::Config{}, 7), 0.5f, 7);
  nn::Tensor a = clean.reset();
  nn::Tensor b = noisy.reset();
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i] != b[i]) differs = true;
  EXPECT_TRUE(differs);
}

TEST(NoisyObs, ZeroStddevIsTransparent) {
  env::CartPole clean(env::CartPole::Config{}, 7);
  env::NoisyObservationWrapper noisy(
      std::make_unique<env::CartPole>(env::CartPole::Config{}, 7), 0.0f, 7);
  nn::Tensor a = clean.reset();
  nn::Tensor b = noisy.reset();
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(NoisyObs, RespectsBounds) {
  env::NoisyObservationWrapper env(
      std::make_unique<env::MiniPong>(env::MiniPong::Config{}, 3), 2.0f, 3);
  nn::Tensor obs = env.reset();
  for (float p : obs.data()) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

TEST(NoisyObs, InvalidConstruction) {
  EXPECT_THROW(env::NoisyObservationWrapper(nullptr, 0.1f, 1),
               std::logic_error);
  EXPECT_THROW(env::NoisyObservationWrapper(
                   std::make_unique<env::CartPole>(env::CartPole::Config{}, 1),
                   -1.0f, 1),
               std::logic_error);
}

TEST(AttackStride, ReducesAttackCount) {
  rl::AgentPtr victim = rl::make_dqn_agent(rl::ObsSpec{{4}}, 2, 41);
  seq2seq::Seq2SeqConfig cfg = seq2seq::make_cartpole_seq2seq_config(4, 1);
  cfg.embed = 8;
  cfg.lstm_hidden = 6;
  seq2seq::Seq2SeqModel model(cfg, 42);
  attack::AttackPtr gaussian = attack::make_attack(attack::Kind::kGaussian);
  attack::Budget budget{attack::Budget::Norm::kL2, 0.3f};
  core::AttackSession session(*victim, env::Game::kCartPole, model, *gaussian,
                              budget);
  core::AttackPolicy every;
  every.mode = core::AttackPolicy::Mode::kEveryStep;
  core::AttackPolicy sparse = every;
  sparse.stride = 4;
  auto dense_outcome = session.run_episode(every, 50);
  auto sparse_outcome = session.run_episode(sparse, 50);
  EXPECT_GT(dense_outcome.attacks_attempted, 0u);
  EXPECT_GT(sparse_outcome.attacks_attempted, 0u);
  EXPECT_LT(sparse_outcome.attacks_attempted,
            dense_outcome.attacks_attempted);
  // Roughly a quarter as many (per-episode lengths differ, so allow slack).
  EXPECT_LE(sparse_outcome.attacks_attempted,
            dense_outcome.attacks_attempted / 2);
}

}  // namespace
}  // namespace rlattack
