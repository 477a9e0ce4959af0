// Model-zoo behaviour: train-on-first-use, checkpoint round trip, scale
// plumbing. Uses a throwaway cache directory and a tiny training scale so
// the test stays fast.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "rlattack/core/zoo.hpp"

namespace rlattack::core {
namespace {

class ZooTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest -j runs the cases as parallel
    // processes, and a shared directory let one case delete another's
    // checkpoints mid-test.
    cache_ = ::testing::TempDir() + "rlattack_zoo_cache_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(cache_);
  }
  void TearDown() override { std::filesystem::remove_all(cache_); }

  ZooConfig tiny_config() const {
    ZooConfig cfg;
    cfg.cache_dir = cache_;
    cfg.scale = 0.02;  // ~8 training episodes, 2 seq2seq epochs
    cfg.seed = 5;
    cfg.verbose = false;
    return cfg;
  }

  std::string cache_;
};

TEST_F(ZooTest, VictimTrainsOnceAndCheckpoints) {
  Zoo zoo(tiny_config());
  rl::Agent& a = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  EXPECT_EQ(a.algorithm(), "dqn");
  EXPECT_TRUE(
      std::filesystem::exists(cache_ + "/cartpole_dqn.ckpt"));
  // Second request returns the same in-memory instance.
  rl::Agent& b = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  EXPECT_EQ(&a, &b);
}

TEST_F(ZooTest, VictimLoadsFromCheckpointInFreshZoo) {
  nn::Tensor probe({4}, {0.1f, 0.2f, -0.1f, 0.0f});
  std::size_t first_action;
  {
    Zoo zoo(tiny_config());
    first_action = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn)
                       .act(probe, false);
  }
  Zoo reloaded(tiny_config());
  // Loads the checkpoint instead of retraining: same greedy behaviour.
  EXPECT_EQ(reloaded.victim(env::Game::kCartPole, rl::Algorithm::kDqn)
                .act(probe, false),
            first_action);
}

TEST_F(ZooTest, TruncatedVictimCheckpointRetrainsLikeAnEmptyCache) {
  const std::string ckpt = cache_ + "/cartpole_dqn.ckpt";
  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  // Scale 0.1 trains past the DQN replay warm-up, so the checkpoint holds
  // trained weights rather than the initial ones.
  ZooConfig cfg = tiny_config();
  cfg.scale = 0.1;
  {
    Zoo zoo(cfg);
    (void)zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  }
  const std::string trained = read(ckpt);
  ASSERT_FALSE(trained.empty());
  // Cut inside a weight tensor; the .meta sidecar still matches, so the
  // Zoo tries the checkpoint, rejects it and retrains.
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out.write(trained.data(), static_cast<std::streamsize>(trained.size() / 2));
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt + ".meta"));
  {
    Zoo zoo(cfg);
    (void)zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  }
  EXPECT_EQ(read(ckpt), trained)
      << "the retrained victim started from half-loaded weights";
}

TEST_F(ZooTest, ApproximatorRoundTripsWithMeta) {
  ApproximatorInfo trained;
  {
    Zoo zoo(tiny_config());
    trained = zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
    ASSERT_NE(trained.model, nullptr);
    EXPECT_FALSE(trained.from_cache);
    EXPECT_GT(trained.input_steps, 0u);
  }
  Zoo reloaded(tiny_config());
  ApproximatorInfo cached =
      reloaded.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  EXPECT_TRUE(cached.from_cache);
  EXPECT_EQ(cached.input_steps, trained.input_steps);
  EXPECT_NEAR(cached.accuracy, trained.accuracy, 1e-6);
}

TEST_F(ZooTest, EpisodesAreCachedInMemory) {
  Zoo zoo(tiny_config());
  const auto& eps1 = zoo.episodes(env::Game::kCartPole, rl::Algorithm::kDqn);
  const auto& eps2 = zoo.episodes(env::Game::kCartPole, rl::Algorithm::kDqn);
  EXPECT_EQ(&eps1, &eps2);
  EXPECT_GT(eps1.size(), 0u);
}

TEST(ZooStatics, LengthCandidatesPerGame) {
  EXPECT_GT(Zoo::length_candidates(env::Game::kCartPole).size(), 2u);
  const auto image = Zoo::length_candidates(env::Game::kMiniPong);
  for (std::size_t n : image) EXPECT_LE(n, 10u);
}

}  // namespace
}  // namespace rlattack::core
