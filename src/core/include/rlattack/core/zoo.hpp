// Model zoo: trains victim agents and seq2seq approximators on first use
// and checkpoints them under a cache directory so every bench binary can
// share the same artefacts instead of retraining. All training budgets
// scale with RLATTACK_BENCH_SCALE (default 1.0).
#pragma once

#include <map>
#include <optional>

#include "rlattack/env/factory.hpp"
#include "rlattack/rl/agent.hpp"
#include "rlattack/rl/trainer.hpp"
#include "rlattack/seq2seq/trainer.hpp"

namespace rlattack::core {

struct ZooConfig {
  std::string cache_dir = "checkpoints";
  double scale = 1.0;       ///< multiplies all episode/epoch budgets
  std::uint64_t seed = 42;  ///< base seed; derived per artefact
  bool verbose = true;
};

/// Reads RLATTACK_BENCH_SCALE (a positive float) from the environment;
/// returns 1.0 when unset/invalid.
double bench_scale_from_env();

/// A trained approximator plus its Algorithm-1 metadata.
struct ApproximatorInfo {
  seq2seq::Seq2SeqModel* model = nullptr;  ///< owned by the Zoo
  std::size_t input_steps = 0;             ///< the searched n
  double accuracy = 0.0;  ///< eval accuracy at training time (Table 2)
  bool from_cache = false;
  seq2seq::LengthSearchResult search;  ///< empty when loaded from cache
};

class Zoo {
 public:
  explicit Zoo(ZooConfig config);

  /// Returns the trained victim for (game, algorithm), training and
  /// checkpointing it on first use. The returned reference stays valid for
  /// the Zoo's lifetime.
  rl::Agent& victim(env::Game game, rl::Algorithm algorithm);

  /// Greedy evaluation score of a victim (mean over `episodes`), played
  /// by the victim itself through rl::evaluate_agent.
  double victim_score(env::Game game, rl::Algorithm algorithm,
                      std::size_t episodes = 10);

  /// Returns the approximator trained from passive observation of the
  /// (game, source-algorithm) victim with output length m, running
  /// Algorithm 1 (length search + full training) on first use.
  ApproximatorInfo approximator(env::Game game, rl::Algorithm source,
                                std::size_t output_steps);

  /// The observation dataset collected from a victim (cached in memory):
  /// rl::collect_episodes run on the victim itself.
  const std::vector<env::Episode>& episodes(env::Game game,
                                            rl::Algorithm source);

  /// Per-game Algorithm-1 candidate input lengths (image games search a
  /// smaller range for CPU-budget reasons; DESIGN.md).
  static std::vector<std::size_t> length_candidates(env::Game game);

  /// Seq2seq training settings for a game at the current scale.
  seq2seq::TrainSettings seq2seq_settings(env::Game game) const;

  /// Number of observation episodes collected per game at current scale.
  std::size_t observation_episodes(env::Game game) const;

  const ZooConfig& config() const noexcept { return config_; }

 private:
  std::string victim_key(env::Game game, rl::Algorithm algorithm) const;
  rl::AgentPtr build_agent(env::Game game, rl::Algorithm algorithm,
                           std::uint64_t seed) const;
  rl::TrainResult train_victim(rl::Agent& agent, env::Game game,
                               rl::Algorithm algorithm,
                               const rl::TrainConfig& tc);

  ZooConfig config_;
  std::map<std::string, rl::AgentPtr> victims_;
  std::map<std::string, std::unique_ptr<seq2seq::Seq2SeqModel>> models_;
  std::map<std::string, ApproximatorInfo> infos_;
  std::map<std::string, std::vector<env::Episode>> episodes_;
};

}  // namespace rlattack::core
