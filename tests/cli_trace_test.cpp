// CLI argument parsing and episode-trace serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>

#include "rlattack/env/cartpole.hpp"
#include "rlattack/env/trace_io.hpp"
#include "rlattack/rl/factory.hpp"
#include "rlattack/rl/trainer.hpp"
#include "rlattack/util/cli.hpp"

namespace rlattack {
namespace {

util::CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv(tokens);
  return util::CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, SubcommandAndOptions) {
  auto args = parse({"rlattack", "train", "--game", "cartpole",
                     "--episodes=250", "--verbose"});
  EXPECT_EQ(args.command(), "train");
  EXPECT_EQ(args.get("game", ""), "cartpole");
  EXPECT_EQ(args.get_int("episodes", 0), 250);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose", ""), "true");
}

TEST(CliArgs, FallbacksApply) {
  auto args = parse({"rlattack", "eval"});
  EXPECT_EQ(args.get("game", "cartpole"), "cartpole");
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.5), 0.5);
  EXPECT_EQ(args.get_int("runs", 7), 7);
  EXPECT_FALSE(args.has("game"));
}

TEST(CliArgs, PositionalArguments) {
  auto args = parse({"rlattack", "attack", "extra1", "--eps", "2.0",
                     "extra2"});
  EXPECT_EQ(args.command(), "attack");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "extra1");
  EXPECT_DOUBLE_EQ(args.get_double("eps", 0.0), 2.0);
}

TEST(CliArgs, SeparateValueConsumesNextToken) {
  auto args = parse({"p", "cmd", "--key", "value", "--flag", "--num", "3"});
  EXPECT_EQ(args.get("key", ""), "value");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_EQ(args.get_int("num", 0), 3);
}

TEST(CliArgs, MalformedInputsThrow) {
  EXPECT_THROW(parse({"p", "cmd", "--"}), std::invalid_argument);
  auto args = parse({"p", "cmd", "--eps", "abc"});
  EXPECT_THROW(args.get_double("eps", 0.0), std::invalid_argument);
  EXPECT_THROW(args.get_int("eps", 0), std::invalid_argument);
}

TEST(CliArgs, KeysLists) {
  auto args = parse({"p", "cmd", "--a=1", "--b=2"});
  const auto keys = args.keys();
  EXPECT_EQ(keys.size(), 2u);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  env::CartPole env(env::CartPole::Config{}, 3);
  rl::AgentPtr agent = rl::make_agent(rl::Algorithm::kDqn,
                                      rl::ObsSpec{{4}}, 2, 3);
  auto episodes = rl::collect_episodes(*agent, env, 3, 3);
  const std::string path = ::testing::TempDir() + "rlattack_traces.rltr";
  ASSERT_TRUE(env::save_episodes(episodes, path));
  auto loaded = env::load_episodes(path);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), episodes.size());
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    ASSERT_EQ((*loaded)[e].steps.size(), episodes[e].steps.size());
    for (std::size_t t = 0; t < episodes[e].steps.size(); ++t) {
      const auto& orig = episodes[e].steps[t];
      const auto& got = (*loaded)[e].steps[t];
      EXPECT_EQ(got.action, orig.action);
      EXPECT_DOUBLE_EQ(got.reward, orig.reward);
      EXPECT_EQ(got.done, orig.done);
      ASSERT_EQ(got.observation.size(), orig.observation.size());
      for (std::size_t i = 0; i < orig.observation.size(); ++i)
        EXPECT_FLOAT_EQ(got.observation[i], orig.observation[i]);
    }
  }
  std::filesystem::remove(path);
}

TEST(TraceIo, EmptySetRoundTrips) {
  const std::string path = ::testing::TempDir() + "rlattack_empty.rltr";
  ASSERT_TRUE(env::save_episodes({}, path));
  auto loaded = env::load_episodes(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->empty());
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingAndCorruptFilesFail) {
  EXPECT_FALSE(env::load_episodes("/nonexistent.rltr").has_value());
  const std::string path = ::testing::TempDir() + "rlattack_corrupt.rltr";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTATRACE";
  }
  EXPECT_FALSE(env::load_episodes(path).has_value());
  std::filesystem::remove(path);
}

// A valid one-episode, two-step trace at `name` in the test temp dir.
std::string write_trace(const std::string& name) {
  env::Episode episode;
  for (std::size_t t = 0; t < 2; ++t) {
    env::Transition step;
    step.observation = nn::Tensor({4}, {0.1f, 0.2f, 0.3f, 0.4f});
    step.action = t;
    step.reward = 1.0;
    step.done = t == 1;
    episode.steps.push_back(std::move(step));
  }
  const std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(env::save_episodes({episode}, path));
  EXPECT_TRUE(env::load_episodes(path).has_value());
  return path;
}

// Byte offsets in the format (trace_io.hpp): magic (4) | version (4) |
// episode_count (8) | the first episode's step_count (8) | the first
// step's obs_size (8).
constexpr std::streamoff kEpisodeCountOffset = 8;
constexpr std::streamoff kFirstStepCountOffset = 16;
constexpr std::streamoff kFirstObsSizeOffset = 24;

void overwrite_u64(const std::string& path, std::streamoff offset,
                   std::uint64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(offset);
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

// A corrupt file comes back as nullopt, never as an exception.
void expect_rejected(const std::string& path) {
  std::optional<std::vector<env::Episode>> loaded;
  EXPECT_NO_THROW(loaded = env::load_episodes(path));
  EXPECT_FALSE(loaded.has_value());
  std::filesystem::remove(path);
}

TEST(TraceIo, HugeEpisodeCountFailsWithoutThrowing) {
  const std::string path = write_trace("rlattack_huge_episodes.rltr");
  overwrite_u64(path, kEpisodeCountOffset, UINT64_MAX);
  expect_rejected(path);
}

TEST(TraceIo, HugeStepCountFailsWithoutThrowing) {
  const std::string path = write_trace("rlattack_huge_steps.rltr");
  overwrite_u64(path, kFirstStepCountOffset, UINT64_MAX);
  expect_rejected(path);
}

TEST(TraceIo, HugeObservationSizeFailsWithoutThrowing) {
  const std::string path = write_trace("rlattack_huge_obs.rltr");
  overwrite_u64(path, kFirstObsSizeOffset, UINT64_MAX);
  expect_rejected(path);
}

TEST(TraceIo, TruncatedFileFails) {
  const std::string path = write_trace("rlattack_truncated.rltr");
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 1);
  expect_rejected(path);
}

TEST(TraceIo, TrailingByteFails) {
  const std::string path = write_trace("rlattack_trailing.rltr");
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  expect_rejected(path);
}

}  // namespace
}  // namespace rlattack
