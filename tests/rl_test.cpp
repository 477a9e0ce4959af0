// Replay buffers, sum-tree properties, networks and agent-learning smoke
// tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "gradcheck.hpp"
#include "rlattack/env/cartpole.hpp"
#include "rlattack/rl/a2c.hpp"
#include "rlattack/rl/batch.hpp"
#include "rlattack/rl/factory.hpp"
#include "rlattack/rl/q_agent.hpp"
#include "rlattack/rl/replay.hpp"
#include "rlattack/rl/trainer.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::rl {
namespace {

using rlattack::testing::random_tensor;

Replayed make_transition(float reward) {
  Replayed r;
  r.observation = nn::Tensor({2}, {reward, 0.0f});
  r.action = 0;
  r.reward = reward;
  r.next_observation = nn::Tensor({2});
  r.done = false;
  return r;
}

TEST(ReplayBuffer, CapacityEviction) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) buf.push(make_transition(static_cast<float>(i)));
  EXPECT_EQ(buf.size(), 3u);
  // Ring kept the newest 3 rewards {2, 3, 4}.
  util::RunningStats stats;
  for (std::size_t i = 0; i < buf.size(); ++i) stats.add(buf[i].reward);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
}

TEST(ReplayBuffer, SampleIndicesInRange) {
  ReplayBuffer buf(10);
  for (int i = 0; i < 4; ++i) buf.push(make_transition(1.0f));
  util::Rng rng(1);
  for (std::size_t idx : buf.sample_indices(100, rng)) EXPECT_LT(idx, 4u);
}

TEST(ReplayBuffer, EmptySampleThrows) {
  ReplayBuffer buf(4);
  util::Rng rng(1);
  EXPECT_THROW(buf.sample_indices(1, rng), std::logic_error);
  EXPECT_THROW(ReplayBuffer(0), std::logic_error);
}

TEST(SumTree, TotalTracksUpdates) {
  SumTree tree(4);
  tree.set(0, 1.0f);
  tree.set(1, 2.0f);
  tree.set(2, 3.0f);
  EXPECT_FLOAT_EQ(tree.total(), 6.0f);
  tree.set(1, 0.5f);
  EXPECT_FLOAT_EQ(tree.total(), 4.5f);
  EXPECT_FLOAT_EQ(tree.get(2), 3.0f);
}

TEST(SumTree, FindRespectsPrefixSums) {
  SumTree tree(4);
  tree.set(0, 1.0f);
  tree.set(1, 2.0f);
  tree.set(2, 3.0f);
  tree.set(3, 4.0f);
  EXPECT_EQ(tree.find(0.5f), 0u);
  EXPECT_EQ(tree.find(1.5f), 1u);
  EXPECT_EQ(tree.find(3.5f), 2u);
  EXPECT_EQ(tree.find(9.5f), 3u);
}

TEST(SumTree, PropertySamplingMatchesPriorities) {
  // Property sweep: empirical sampling frequencies track priorities.
  SumTree tree(8);
  std::vector<float> priorities{1, 2, 0, 4, 1, 0, 8, 0};
  for (std::size_t i = 0; i < priorities.size(); ++i)
    tree.set(i, priorities[i]);
  util::Rng rng(99);
  std::vector<std::size_t> counts(8, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i)
    ++counts[tree.find(static_cast<float>(rng.uniform() * tree.total()))];
  for (std::size_t i = 0; i < 8; ++i) {
    const double expected = priorities[i] / 16.0;
    const double observed = static_cast<double>(counts[i]) / draws;
    EXPECT_NEAR(observed, expected, 0.02) << "leaf " << i;
  }
}

TEST(SumTree, InvalidOperationsThrow) {
  SumTree tree(2);
  EXPECT_THROW(tree.set(2, 1.0f), std::logic_error);
  EXPECT_THROW(tree.set(0, -1.0f), std::logic_error);
  EXPECT_THROW(SumTree(0), std::logic_error);
}

TEST(PrioritizedReplay, NewItemsGetSampled) {
  PrioritizedReplayBuffer::Config cfg;
  cfg.capacity = 8;
  PrioritizedReplayBuffer buf(cfg);
  for (int i = 0; i < 4; ++i) buf.push(make_transition(static_cast<float>(i)));
  util::Rng rng(3);
  auto sample = buf.sample(16, rng);
  for (std::size_t idx : sample.indices) EXPECT_LT(idx, 4u);
  for (float w : sample.weights) {
    EXPECT_GT(w, 0.0f);
    EXPECT_LE(w, 1.0f);
  }
}

TEST(PrioritizedReplay, HighTdErrorSampledMore) {
  PrioritizedReplayBuffer::Config cfg;
  cfg.capacity = 4;
  PrioritizedReplayBuffer buf(cfg);
  for (int i = 0; i < 4; ++i) buf.push(make_transition(static_cast<float>(i)));
  buf.update_priorities({0, 1, 2, 3}, {10.0f, 0.01f, 0.01f, 0.01f});
  util::Rng rng(5);
  std::size_t hot = 0, total = 0;
  for (int round = 0; round < 100; ++round) {
    auto s = buf.sample(8, rng);
    for (std::size_t idx : s.indices) {
      if (idx == 0) ++hot;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(total), 0.5);
}

TEST(PrioritizedReplay, BetaAnnealsTowardOne) {
  PrioritizedReplayBuffer::Config cfg;
  cfg.capacity = 4;
  cfg.beta_anneal_steps = 10;
  PrioritizedReplayBuffer buf(cfg);
  buf.push(make_transition(0.0f));
  const float beta0 = buf.current_beta();
  util::Rng rng(1);
  for (int i = 0; i < 20; ++i) buf.sample(2, rng);
  EXPECT_LT(beta0, buf.current_beta());
  EXPECT_FLOAT_EQ(buf.current_beta(), cfg.beta_end);
}

TEST(PrioritizedReplay, UpdateSizeMismatchThrows) {
  PrioritizedReplayBuffer::Config cfg;
  cfg.capacity = 4;
  PrioritizedReplayBuffer buf(cfg);
  buf.push(make_transition(0.0f));
  EXPECT_THROW(buf.update_priorities({0, 1}, {1.0f}), std::logic_error);
}

TEST(Batch, StacksObservations) {
  nn::Tensor a({2}, {1, 2});
  nn::Tensor b({2}, {3, 4});
  std::vector<const nn::Tensor*> ptrs{&a, &b};
  nn::Tensor batch = batch_observations(ptrs);
  EXPECT_EQ(batch.dim(0), 2u);
  EXPECT_FLOAT_EQ(batch.at2(1, 0), 3.0f);
}

TEST(Batch, InconsistentShapesThrow) {
  nn::Tensor a({2});
  nn::Tensor b({3});
  std::vector<const nn::Tensor*> ptrs{&a, &b};
  EXPECT_THROW(batch_observations(ptrs), std::logic_error);
}

TEST(Batch, AsBatchOfOne) {
  nn::Tensor obs({1, 4, 4});
  nn::Tensor batched = as_batch_of_one(obs);
  EXPECT_EQ(batched.rank(), 4u);
  EXPECT_EQ(batched.dim(0), 1u);
}

TEST(Networks, MakeNetSelectsArchitecture) {
  util::Rng rng(1);
  ObsSpec vec{{4}};
  ObsSpec img{{2, 8, 8}};
  EXPECT_FALSE(vec.is_image());
  EXPECT_TRUE(img.is_image());
  auto mlp = make_net(vec, 3, 16, rng);
  EXPECT_EQ(mlp->forward(nn::Tensor({1, 4})).dim(1), 3u);
  auto conv = make_net(img, 3, 16, rng);
  EXPECT_EQ(conv->forward(nn::Tensor({1, 2, 8, 8})).dim(1), 3u);
}

TEST(Networks, DuelingHeadIdentity) {
  // Q = V + A - mean(A): adding a constant to all advantages leaves Q
  // unchanged; that's the head's defining invariant.
  util::Rng rng(2);
  DuelingHead head(4, 3, 8, /*noisy=*/false, rng);
  nn::Tensor x = random_tensor({2, 4}, rng);
  nn::Tensor q = head.forward(x);
  EXPECT_EQ(q.dim(1), 3u);
  // Mean-advantage subtraction means gradient rows that are constant across
  // actions flow only into the value stream: check backward shape.
  nn::Tensor g = head.backward(random_tensor({2, 3}, rng));
  EXPECT_TRUE(g.same_shape(x));
}

TEST(Networks, DuelingHeadGradCheck) {
  util::Rng rng(3);
  DuelingHead head(5, 3, 8, false, rng);
  nn::Tensor x = random_tensor({2, 5}, rng);
  rlattack::testing::check_input_gradient(head, x, rng);
  rlattack::testing::check_param_gradients(head, x, rng);
}

TEST(Networks, RainbowNetOutputsActions) {
  util::Rng rng(4);
  auto net = make_rainbow_net(ObsSpec{{4}}, 2, 16, true, rng);
  nn::Tensor q = net->forward(nn::Tensor({1, 4}));
  EXPECT_EQ(q.dim(1), 2u);
}

TEST(Agents, FactoryAndAlgorithmNames) {
  for (Algorithm a : {Algorithm::kDqn, Algorithm::kA2c, Algorithm::kRainbow})
    EXPECT_EQ(parse_algorithm(algorithm_name(a)), a);
  EXPECT_THROW(parse_algorithm("sac"), std::invalid_argument);
  util::Rng rng(1);
  for (Algorithm a : {Algorithm::kDqn, Algorithm::kA2c, Algorithm::kRainbow}) {
    AgentPtr agent = make_agent(a, ObsSpec{{4}}, 2, 7);
    EXPECT_EQ(agent->algorithm(), algorithm_name(a));
    EXPECT_EQ(agent->action_count(), 2u);
    const std::size_t action = agent->act(nn::Tensor({4}), false);
    EXPECT_LT(action, 2u);
  }
}

TEST(Agents, GreedyActionIsDeterministic) {
  AgentPtr agent = make_dqn_agent(ObsSpec{{4}}, 2, 7);
  nn::Tensor obs({4}, {0.1f, -0.2f, 0.3f, 0.0f});
  const std::size_t a1 = agent->act(obs, false);
  const std::size_t a2 = agent->act(obs, false);
  EXPECT_EQ(a1, a2);
}

TEST(QAgent, EpsilonDecays) {
  QAgent::Config cfg;
  cfg.eps_decay_steps = 10;
  cfg.warmup_steps = 1000;  // no training in this test
  QAgent agent(ObsSpec{{4}}, 2, cfg, 1);
  EXPECT_FLOAT_EQ(agent.epsilon(), cfg.eps_start);
  nn::Tensor obs({4});
  for (int i = 0; i < 20; ++i)
    agent.learn(obs, 0, 0.0, obs, false);
  EXPECT_FLOAT_EQ(agent.epsilon(), cfg.eps_end);
}

TEST(QAgent, NoisyAgentEpsilonFloorDecaysToZero) {
  // Noisy agents keep a small decaying epsilon floor (exploration rescue
  // for near-zero observations; see Config docs) that must hit exactly 0.
  QAgent::Config cfg;
  cfg.use_noisy = true;
  cfg.use_dueling = true;
  cfg.eps_decay_steps = 10;
  cfg.warmup_steps = 1000;
  QAgent agent(ObsSpec{{4}}, 2, cfg, 1);
  EXPECT_FLOAT_EQ(agent.epsilon(), cfg.noisy_eps_start);
  nn::Tensor obs({4});
  for (int i = 0; i < 20; ++i) agent.learn(obs, 0, 0.0, obs, false);
  EXPECT_FLOAT_EQ(agent.epsilon(), 0.0f);
}

struct AlgoCase {
  Algorithm algorithm;
  double target;
};

// gtest would print the struct's raw bytes, padding included, into the
// ctest names gtest_discover_tests registers; print the fields instead.
void PrintTo(const AlgoCase& c, std::ostream* os) {
  *os << algorithm_name(c.algorithm) << " target " << c.target;
}

class AgentLearnsCartPole : public ::testing::TestWithParam<AlgoCase> {};

// Training smoke: each algorithm must clearly beat the random policy
// (random play scores ~20 on CartPole) within a small budget.
TEST_P(AgentLearnsCartPole, BeatsRandomPolicy) {
  const auto param = GetParam();
  env::CartPole train_env(env::CartPole::Config{}, 11);
  AgentPtr agent = make_agent(param.algorithm, ObsSpec{{4}}, 2, 11);
  TrainConfig tc;
  tc.episodes = 250;
  tc.target_reward = param.target;
  TrainResult result = train_agent(*agent, train_env, tc);

  env::CartPole eval_env(env::CartPole::Config{}, 12);
  const auto rewards = evaluate_agent(*agent, eval_env, 5, 500);
  EXPECT_GE(util::mean_of(rewards), param.target * 0.6)
      << algorithm_name(param.algorithm) << " failed to learn";
}

INSTANTIATE_TEST_SUITE_P(Algorithms, AgentLearnsCartPole,
                         ::testing::Values(AlgoCase{Algorithm::kDqn, 100.0},
                                           AlgoCase{Algorithm::kA2c, 80.0},
                                           AlgoCase{Algorithm::kRainbow,
                                                    100.0}));

TEST(C51, InvalidConfigsThrow) {
  QAgent::Config cfg;
  cfg.use_distributional = true;
  cfg.use_dueling = true;
  EXPECT_THROW(QAgent(ObsSpec{{4}}, 2, cfg, 1), std::logic_error);
  cfg.use_dueling = false;
  cfg.atoms = 1;
  EXPECT_THROW(QAgent(ObsSpec{{4}}, 2, cfg, 1), std::logic_error);
  cfg.atoms = 21;
  cfg.v_min = 5.0f;
  cfg.v_max = 5.0f;
  EXPECT_THROW(QAgent(ObsSpec{{4}}, 2, cfg, 1), std::logic_error);
}

TEST(C51, ActsAndLearnsWithoutError) {
  AgentPtr agent = make_c51_agent(ObsSpec{{4}}, 2, 3);
  nn::Tensor obs({4}, {0.1f, -0.2f, 0.05f, 0.0f});
  EXPECT_LT(agent->act(obs, false), 2u);
  // Drive enough transitions to trigger several distributional updates.
  util::Rng rng(3);
  for (int i = 0; i < 700; ++i) {
    nn::Tensor o = rlattack::testing::random_tensor({4}, rng);
    agent->learn(o, rng.uniform_int(std::uint64_t{2}), rng.uniform(), o,
                 i % 50 == 49);
  }
  EXPECT_LT(agent->act(obs, false), 2u);
}

TEST(C51, GreedyPrefersHigherExpectedValueState) {
  // Train on a two-state contextual bandit: action 0 pays 10 in state A,
  // action 1 pays 10 in state B (episodes of length 1). The learned greedy
  // policy must separate them.
  QAgent::Config cfg;
  cfg.use_distributional = true;
  cfg.use_double = true;
  cfg.v_min = -1.0f;
  cfg.v_max = 12.0f;
  cfg.warmup_steps = 64;
  cfg.train_interval = 1;
  cfg.eps_decay_steps = 300;
  QAgent agent(ObsSpec{{2}}, 2, cfg, 5);
  nn::Tensor state_a({2}, {1.0f, 0.0f});
  nn::Tensor state_b({2}, {0.0f, 1.0f});
  util::Rng rng(5);
  for (int i = 0; i < 800; ++i) {
    const bool in_a = rng.bernoulli(0.5);
    const nn::Tensor& s = in_a ? state_a : state_b;
    const std::size_t action = agent.act(s, true);
    const double reward =
        (in_a && action == 0) || (!in_a && action == 1) ? 10.0 : 0.0;
    agent.learn(s, action, reward, s, /*done=*/true);
  }
  EXPECT_EQ(agent.act(state_a, false), 0u);
  EXPECT_EQ(agent.act(state_b, false), 1u);
}

// act_batch contract (Agent::act_batch): the batched path must return
// exactly the actions B serial act() calls would, AND leave the agent's RNG
// stream in the identical state afterwards. The stream half of the contract
// is checked by interleaving rounds on a pair of same-seed agents — a
// stream that drifted in round r shows up as differing actions in round
// r+1, without needing access to the private RNG.
std::vector<std::size_t> act_rows_serially(Agent& agent,
                                           const nn::Tensor& stack,
                                           bool explore) {
  const std::size_t batch = stack.dim(0);
  const std::size_t width = stack.dim(1);
  std::vector<std::size_t> actions(batch);
  nn::Tensor row({width});
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy(stack.raw() + b * width, stack.raw() + (b + 1) * width,
              row.raw());
    actions[b] = agent.act(row, explore);
  }
  return actions;
}

TEST(ActBatch, GreedyMatchesSerialPerAlgorithm) {
  util::Rng obs_rng(99);
  for (Algorithm a : {Algorithm::kDqn, Algorithm::kA2c, Algorithm::kRainbow}) {
    AgentPtr serial = make_agent(a, ObsSpec{{4}}, 3, 21);
    AgentPtr batched = make_agent(a, ObsSpec{{4}}, 3, 21);
    const nn::Tensor stack = random_tensor({6, 4}, obs_rng);
    const std::vector<std::size_t> expected =
        act_rows_serially(*serial, stack, /*explore=*/false);
    EXPECT_EQ(batched->act_batch(stack, false), expected)
        << algorithm_name(a);
    // Greedy evaluation consumes no RNG, so the very agent that just acted
    // serially must reproduce its own rows through the batched path too.
    EXPECT_EQ(serial->act_batch(stack, false), expected)
        << algorithm_name(a);
  }
}

TEST(ActBatch, ExploreMatchesSerialAndKeepsRngStreamAligned) {
  struct Case {
    const char* name;
    AgentPtr serial;
    AgentPtr batched;
  };
  // dqn: epsilon-greedy pre-draws; c51: distributional head on the shared
  // forward; rainbow: NoisyNet explore falls back to the defining per-row
  // loop; a2c: per-row categorical sampling after one forward.
  std::vector<Case> cases;
  cases.push_back({"dqn", make_dqn_agent(ObsSpec{{4}}, 3, 31),
                   make_dqn_agent(ObsSpec{{4}}, 3, 31)});
  cases.push_back({"c51", make_c51_agent(ObsSpec{{4}}, 3, 32),
                   make_c51_agent(ObsSpec{{4}}, 3, 32)});
  cases.push_back({"rainbow", make_rainbow_agent(ObsSpec{{4}}, 3, 33),
                   make_rainbow_agent(ObsSpec{{4}}, 3, 33)});
  cases.push_back({"a2c", make_a2c_agent(ObsSpec{{4}}, 3, 34),
                   make_a2c_agent(ObsSpec{{4}}, 3, 34)});
  util::Rng obs_rng(123);
  for (Case& c : cases) {
    for (int round = 0; round < 5; ++round) {
      const nn::Tensor stack = random_tensor({7, 4}, obs_rng);
      const std::vector<std::size_t> expected =
          act_rows_serially(*c.serial, stack, /*explore=*/true);
      EXPECT_EQ(c.batched->act_batch(stack, true), expected)
          << c.name << " round " << round;
    }
  }
}

TEST(ActBatch, RejectsUnstackedObservation) {
  AgentPtr agent = make_dqn_agent(ObsSpec{{4}}, 2, 7);
  EXPECT_THROW(agent->act_batch(nn::Tensor({4}), false), std::logic_error);
}

TEST(Trainer, CollectEpisodesRecordsActions) {
  env::CartPole env(env::CartPole::Config{}, 13);
  AgentPtr agent = make_dqn_agent(ObsSpec{{4}}, 2, 13);
  auto episodes = collect_episodes(*agent, env, 3, 13);
  ASSERT_EQ(episodes.size(), 3u);
  for (const auto& ep : episodes) {
    EXPECT_GT(ep.steps.size(), 0u);
    for (const auto& t : ep.steps) {
      EXPECT_EQ(t.observation.size(), 4u);
      EXPECT_LT(t.action, 2u);
    }
    EXPECT_TRUE(ep.steps.back().done);
    EXPECT_DOUBLE_EQ(ep.total_reward(),
                     static_cast<double>(ep.steps.size()));
  }
}

TEST(Trainer, CollectIsDeterministic) {
  env::CartPole env(env::CartPole::Config{}, 13);
  AgentPtr agent = make_dqn_agent(ObsSpec{{4}}, 2, 13);
  auto eps1 = collect_episodes(*agent, env, 2, 77);
  auto eps2 = collect_episodes(*agent, env, 2, 77);
  ASSERT_EQ(eps1.size(), eps2.size());
  for (std::size_t e = 0; e < eps1.size(); ++e) {
    ASSERT_EQ(eps1[e].steps.size(), eps2[e].steps.size());
    for (std::size_t t = 0; t < eps1[e].steps.size(); ++t)
      EXPECT_EQ(eps1[e].steps[t].action, eps2[e].steps[t].action);
  }
}

}  // namespace
}  // namespace rlattack::rl
