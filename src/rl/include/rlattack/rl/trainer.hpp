// Training and evaluation loops shared by all agents, plus episode
// collection for the seq2seq observation phase (Algorithm 1 lines 1-11).
#pragma once

#include "rlattack/env/environment.hpp"
#include "rlattack/rl/agent.hpp"

namespace rlattack::rl {

struct TrainConfig {
  std::size_t episodes = 300;
  /// Stop early once the rolling-average reward over `window` episodes
  /// reaches `target_reward` (0 disables early stop).
  double target_reward = 0.0;
  std::size_t window = 20;
  bool verbose = false;
};

struct TrainResult {
  std::vector<double> episode_rewards;
  double final_average = 0.0;  ///< rolling average at stop time
  bool reached_target = false;
};

/// Trains `agent` on `environment` (exploration on) for up to
/// `config.episodes` episodes.
TrainResult train_agent(Agent& agent, env::Environment& environment,
                        const TrainConfig& config);

/// Runs `episodes` greedy (evaluation-mode) episodes one after another on
/// `agent` and `environment`, one act() per step; returns per-episode total
/// rewards. Reseeds the environment from `seed` + episode index so runs are
/// reproducible and episodes are distinct.
std::vector<double> evaluate_agent(Agent& agent, env::Environment& environment,
                                   std::size_t episodes, std::uint64_t seed);

/// Collects `episodes` greedy episode traces (observation/action/reward per
/// step) from a trained agent — the attacker's passive observation phase.
/// Same loop and seeding as evaluate_agent.
/// Observations recorded are the *raw environment* observations fed to the
/// agent (post frame-stacking), exactly what a passive observer sees.
std::vector<env::Episode> collect_episodes(Agent& agent,
                                           env::Environment& environment,
                                           std::size_t episodes,
                                           std::uint64_t seed);

}  // namespace rlattack::rl
