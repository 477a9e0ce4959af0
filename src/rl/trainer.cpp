#include "rlattack/rl/trainer.hpp"

#include "rlattack/util/log.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::rl {

namespace {
double rolling_average(const std::vector<double>& rewards,
                       std::size_t window) {
  if (rewards.empty()) return 0.0;
  const std::size_t n = std::min(window, rewards.size());
  double sum = 0.0;
  for (std::size_t i = rewards.size() - n; i < rewards.size(); ++i)
    sum += rewards[i];
  return sum / static_cast<double>(n);
}
}  // namespace

TrainResult train_agent(Agent& agent, env::Environment& environment,
                        const TrainConfig& config) {
  TrainResult result;
  for (std::size_t ep = 0; ep < config.episodes; ++ep) {
    agent.begin_episode();
    nn::Tensor obs = environment.reset();
    double total = 0.0;
    bool done = false;
    while (!done) {
      const std::size_t action = agent.act(obs, /*explore=*/true);
      env::StepResult sr = environment.step(action);
      agent.learn(obs, action, sr.reward, sr.observation, sr.done);
      total += sr.reward;
      done = sr.done;
      obs = std::move(sr.observation);
    }
    result.episode_rewards.push_back(total);
    result.final_average =
        rolling_average(result.episode_rewards, config.window);
    if (config.verbose && (ep + 1) % 20 == 0)
      util::log_info("train ", agent.algorithm(), " ep ", ep + 1, "/",
                     config.episodes, " avg(", config.window,
                     ") = ", result.final_average);
    if (config.target_reward != 0.0 &&
        result.episode_rewards.size() >= config.window &&
        result.final_average >= config.target_reward) {
      result.reached_target = true;
      break;
    }
  }
  return result;
}

std::vector<double> evaluate_agent(Agent& agent,
                                   env::Environment& environment,
                                   std::size_t episodes, std::uint64_t seed) {
  std::vector<double> rewards;
  rewards.reserve(episodes);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    environment.seed(seed + ep);
    nn::Tensor obs = environment.reset();
    double total = 0.0;
    bool done = false;
    while (!done) {
      const std::size_t action = agent.act(obs, /*explore=*/false);
      env::StepResult sr = environment.step(action);
      total += sr.reward;
      done = sr.done;
      obs = std::move(sr.observation);
    }
    rewards.push_back(total);
  }
  return rewards;
}

std::vector<env::Episode> collect_episodes(Agent& agent,
                                           env::Environment& environment,
                                           std::size_t episodes,
                                           std::uint64_t seed) {
  std::vector<env::Episode> out;
  out.reserve(episodes);
  for (std::size_t ep = 0; ep < episodes; ++ep) {
    environment.seed(seed + ep);
    env::Episode& episode = out.emplace_back();
    nn::Tensor obs = environment.reset();
    bool done = false;
    while (!done) {
      const std::size_t action = agent.act(obs, /*explore=*/false);
      env::StepResult sr = environment.step(action);
      env::Transition t;
      t.observation = obs;
      t.action = action;
      t.reward = sr.reward;
      t.done = sr.done;
      episode.steps.push_back(std::move(t));
      done = sr.done;
      obs = std::move(sr.observation);
    }
  }
  return out;
}

}  // namespace rlattack::rl
