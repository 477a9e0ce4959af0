// The paper's evaluation drivers (Section 5): reward-focused attacks
// (Figures 4-6), transferability (Figure 7) and the time-bomb attack
// (Figures 8-9). Each returns plain result rows; the bench binaries format
// them into the paper-shaped tables.
//
// Every driver flattens its grid into independent, seed-deterministic
// episode jobs and runs them through the episode driver
// (parallel_episodes.hpp); statistics are reduced in run order afterwards,
// so result rows are bit-identical at any thread count. Passing a non-null
// `timing` out-parameter records wall-clock and host count for the bench
// CSVs.
#pragma once

#include "rlattack/core/parallel_episodes.hpp"
#include "rlattack/core/pipeline.hpp"
#include "rlattack/core/zoo.hpp"
#include "rlattack/util/table.hpp"

namespace rlattack::core {

/// --- Reward-focused attack (Figures 4, 5, 6) -----------------------------

struct RewardExperimentConfig {
  env::Game game = env::Game::kCartPole;
  rl::Algorithm algorithm = rl::Algorithm::kDqn;
  std::vector<attack::Kind> attacks = {attack::Kind::kGaussian,
                                       attack::Kind::kFgsm,
                                       attack::Kind::kPgd};
  std::vector<double> l2_budgets = {0.0, 0.25, 0.5, 1.0, 2.0, 4.0};
  std::size_t runs = 20;  ///< distinct episodes per point (paper: 20)
  /// false: action-prediction attack (m = 1, perturb a_t).
  /// true:  action-sequence attack (m = 10, flip a random future action).
  bool sequence_variant = false;
  std::uint64_t seed = 1000;
};

struct RewardPoint {
  attack::Kind attack;
  double l2_budget = 0.0;
  double mean_reward = 0.0;
  double stddev_reward = 0.0;
  double mean_realised_l2 = 0.0;  ///< after bounds clamping
  bool sequence_variant = false;
};

/// Runs the sweep; budget 0 rows are the clean baseline (no perturbation).
std::vector<RewardPoint> run_reward_experiment(
    Zoo& zoo, const RewardExperimentConfig& config,
    ExperimentTiming* timing = nullptr);

/// --- Transferability (Figure 7) ------------------------------------------

struct TransferabilityConfig {
  env::Game game = env::Game::kCartPole;
  rl::Algorithm algorithm = rl::Algorithm::kDqn;
  std::vector<attack::Kind> attacks = {attack::Kind::kGaussian,
                                       attack::Kind::kFgsm,
                                       attack::Kind::kPgd};
  std::vector<double> l2_budgets = {0.25, 0.5, 1.0, 2.0};
  std::size_t runs = 10;
  std::uint64_t seed = 2000;
};

struct TransferabilityPoint {
  attack::Kind attack;
  double l2_budget = 0.0;
  /// Fraction of crafted samples that flipped the victim's action
  /// (misbehaviour rate on the target-agent side).
  double transfer_rate = 0.0;
  std::size_t samples = 0;
};

std::vector<TransferabilityPoint> run_transferability_experiment(
    Zoo& zoo, const TransferabilityConfig& config,
    ExperimentTiming* timing = nullptr);

/// --- Time-bomb attack (Figures 8, 9) -------------------------------------

struct TimeBombConfig {
  env::Game game = env::Game::kMiniInvaders;
  /// The victim under attack (A2C / Rainbow in the paper's figures).
  rl::Algorithm victim_algorithm = rl::Algorithm::kA2c;
  /// The algorithm whose traces trained the seq2seq model (DQN in the
  /// paper: cross-algorithm transfer).
  rl::Algorithm approximator_source = rl::Algorithm::kDqn;
  attack::Kind attack_kind = attack::Kind::kFgsm;
  float epsilon_linf = 0.3f;  ///< paper's demonstration budget
  std::vector<std::size_t> delays = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::size_t runs = 20;
  std::uint64_t seed = 3000;
};

struct TimeBombPoint {
  std::size_t delay = 0;
  /// Fraction of trials where the action at t + delay differed from the
  /// clean counterfactual run (perturbation rate, Figures 8-9 y-axis).
  double success_rate = 0.0;
  std::size_t trials = 0;
};

std::vector<TimeBombPoint> run_timebomb_experiment(
    Zoo& zoo, const TimeBombConfig& config,
    ExperimentTiming* timing = nullptr);

/// --- Threat-model comparison (Table 1) -----------------------------------

/// Rebuilds Table 1: which prior work requires which attacker capability.
util::TableWriter threat_model_table();

}  // namespace rlattack::core
