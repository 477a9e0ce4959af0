#include "rlattack/core/zoo.hpp"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "rlattack/nn/serialize.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/rl/factory.hpp"
#include "rlattack/rl/trainer.hpp"
#include "rlattack/util/env.hpp"
#include "rlattack/util/log.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::core {

namespace {

std::size_t scaled(std::size_t base, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(base) * scale));
}

// The per-(game, algorithm) training budget. Factored out of train_victim so
// Zoo::victim can hash the exact config a cached checkpoint would have to
// match before trusting it.
rl::TrainConfig victim_train_config(env::Game game, rl::Algorithm algorithm,
                                    double scale, bool verbose) {
  rl::TrainConfig tc;
  tc.verbose = verbose;
  switch (game) {
    case env::Game::kCartPole:
      tc.episodes = scaled(400, scale);
      tc.target_reward = 180.0;
      // Single-worker on-policy A2C is roughly an order of magnitude less
      // sample-efficient on CartPole than the replay-based value learners:
      // under the shared 400-episode budget it never leaves the ~10-step
      // random-policy regime (final avg reward ~10), which is what made the
      // fig4/fig7 a2c rows finish in milliseconds — 60 nine-step episodes
      // with almost no attack-eligible steps (EXPERIMENTS.md). With 10x
      // episodes it reaches the 180 early-stop target in ~1 s of wall
      // clock, so the bigger budget costs little once converged.
      if (algorithm == rl::Algorithm::kA2c) tc.episodes *= 10;
      break;
    case env::Game::kMiniPong:
      tc.episodes = scaled(180, scale);
      tc.target_reward = 2.4;
      break;
    case env::Game::kMiniInvaders:
      tc.episodes = scaled(180, scale);
      tc.target_reward = 10.0;
      break;
  }
  return tc;
}

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ull;
  }
  return h;
}

// Stable hash over everything the trained weights depend on: the training
// budget, the early-stop contract and the seed. A checkpoint trained under
// any other config (e.g. the pre-fix degenerate A2C budget) hashes
// differently and is retrained instead of silently reused.
std::uint64_t victim_train_hash(env::Game game, rl::Algorithm algorithm,
                                const rl::TrainConfig& tc,
                                std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a_mix(h, static_cast<std::uint64_t>(game));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(algorithm));
  h = fnv1a_mix(h, tc.episodes);
  std::uint64_t target_bits = 0;
  std::memcpy(&target_bits, &tc.target_reward, sizeof(target_bits));
  h = fnv1a_mix(h, target_bits);
  h = fnv1a_mix(h, tc.window);
  h = fnv1a_mix(h, seed);
  return h;
}

seq2seq::Seq2SeqConfig approx_config(env::Game game, std::size_t actions,
                                     std::vector<std::size_t> frame_shape,
                                     std::size_t n, std::size_t m) {
  if (game == env::Game::kCartPole)
    return seq2seq::make_cartpole_seq2seq_config(n, m);
  return seq2seq::make_atari_seq2seq_config(std::move(frame_shape), actions,
                                            n, m);
}

}  // namespace

double bench_scale_from_env() {
  const std::optional<double> value =
      util::env::get_double(util::env::Var::kBenchScale);
  if (!value || *value <= 0.0) return 1.0;
  return *value;
}

Zoo::Zoo(ZooConfig config) : config_(std::move(config)) {
  std::filesystem::create_directories(config_.cache_dir);
}

std::string Zoo::victim_key(env::Game game, rl::Algorithm algorithm) const {
  return env::game_name(game) + "_" + rl::algorithm_name(algorithm);
}

rl::AgentPtr Zoo::build_agent(env::Game game, rl::Algorithm algorithm,
                              std::uint64_t seed) const {
  env::EnvPtr probe = env::make_agent_environment(game, seed);
  rl::ObsSpec spec = rl::obs_spec_of(*probe);
  return rl::make_agent(algorithm, spec, probe->action_count(), seed);
}

rl::TrainResult Zoo::train_victim(rl::Agent& agent, env::Game game,
                                  rl::Algorithm algorithm,
                                  const rl::TrainConfig& tc) {
  obs::Span span(obs::MetricsRegistry::global().span("zoo.train_victim"));
  env::EnvPtr train_env = env::make_agent_environment(
      game, config_.seed ^ (0x1234u + static_cast<unsigned>(algorithm)));
  rl::TrainResult result = rl::train_agent(agent, *train_env, tc);
  util::log_info("zoo: trained ", rl::algorithm_name(algorithm), " on ",
                 env::game_name(game), ": ", result.episode_rewards.size(),
                 " episodes, final avg reward ", result.final_average);
  return result;
}

rl::Agent& Zoo::victim(env::Game game, rl::Algorithm algorithm) {
  const std::string key = victim_key(game, algorithm);
  auto it = victims_.find(key);
  if (it != victims_.end()) return *it->second;

  rl::AgentPtr agent =
      build_agent(game, algorithm, config_.seed ^ std::hash<std::string>{}(key));
  const std::string path = config_.cache_dir + "/" + key + ".ckpt";
  const std::string meta = path + ".meta";
  const rl::TrainConfig tc =
      victim_train_config(game, algorithm, config_.scale, config_.verbose);
  const std::uint64_t want_hash =
      victim_train_hash(game, algorithm, tc, config_.seed);

  // A cached checkpoint is only trusted when its sidecar proves it was
  // trained under exactly this config. Loading any bytes that happen to
  // parse would silently resurrect stale artefacts — e.g. an A2C victim
  // trained under a since-fixed degenerate budget — and every downstream
  // figure would quietly measure the wrong agent. A checkpoint that is
  // below the early-stop target is only accepted with a matching hash:
  // training is seed-deterministic, so rerunning the identical config
  // would reproduce the identical below-target weights (several
  // small-scale victims legitimately never reach their target), and the
  // sidecar's recorded reward documents exactly what the artefact
  // achieved.
  bool loaded = false;
  if (std::filesystem::exists(path) && std::filesystem::exists(meta)) {
    std::ifstream meta_in(meta);
    std::uint64_t have_hash = 0;
    double final_average = 0.0;
    int reached = 0;
    if (meta_in >> have_hash >> final_average >> reached &&
        have_hash == want_hash &&
        nn::load_parameters(agent->network(), path)) {
      util::log_info("zoo: loaded victim ", key, " from ", path,
                     " (final avg reward ", final_average,
                     reached != 0 ? ", reached target)" : ")");
      loaded = true;
    }
  }
  if (!loaded) {
    const rl::TrainResult result = train_victim(*agent, game, algorithm, tc);
    if (!nn::save_parameters(agent->network(), path)) {
      util::log_warn("zoo: failed to checkpoint victim to ", path);
    } else {
      std::ofstream meta_out(meta, std::ios::trunc);
      meta_out << want_hash << ' ' << result.final_average << ' '
               << (result.reached_target ? 1 : 0) << '\n';
    }
  }
  auto [pos, inserted] = victims_.emplace(key, std::move(agent));
  (void)inserted;
  return *pos->second;
}

double Zoo::victim_score(env::Game game, rl::Algorithm algorithm,
                         std::size_t episodes) {
  rl::Agent& agent = victim(game, algorithm);
  env::EnvPtr eval_env =
      env::make_agent_environment(game, config_.seed ^ 0x777u);
  const std::vector<double> rewards =
      rl::evaluate_agent(agent, *eval_env, episodes, config_.seed ^ 0x777u);
  return util::mean_of(rewards);
}

std::size_t Zoo::observation_episodes(env::Game game) const {
  const std::size_t base = game == env::Game::kCartPole ? 60 : 40;
  return scaled(base, config_.scale);
}

std::vector<std::size_t> Zoo::length_candidates(env::Game game) {
  if (game == env::Game::kCartPole) return {5, 10, 25, 50};
  return {2, 5, 10};
}

seq2seq::TrainSettings Zoo::seq2seq_settings(env::Game game) const {
  seq2seq::TrainSettings s;
  if (game == env::Game::kCartPole) {
    s.epochs = scaled(100, config_.scale);
    s.batches_per_epoch = 48;
  } else {
    s.epochs = scaled(60, config_.scale);
    s.batches_per_epoch = 24;
  }
  s.batch_size = 32;
  s.lr = 1e-3f;
  return s;
}

const std::vector<env::Episode>& Zoo::episodes(env::Game game,
                                               rl::Algorithm source) {
  const std::string key = victim_key(game, source);
  auto it = episodes_.find(key);
  if (it != episodes_.end()) return it->second;
  rl::Agent& agent = victim(game, source);
  env::EnvPtr obs_env =
      env::make_agent_environment(game, config_.seed ^ 0xBEEFu);
  util::log_info("zoo: collecting ", observation_episodes(game),
                 " observation episodes from ", key);
  auto eps = rl::collect_episodes(agent, *obs_env, observation_episodes(game),
                                  config_.seed ^ 0xBEEFu);
  auto [pos, inserted] = episodes_.emplace(key, std::move(eps));
  (void)inserted;
  return pos->second;
}

ApproximatorInfo Zoo::approximator(env::Game game, rl::Algorithm source,
                                   std::size_t output_steps) {
  const std::string key = victim_key(game, source) + "_m" +
                          std::to_string(output_steps);
  auto it = infos_.find(key);
  if (it != infos_.end()) return it->second;

  env::EnvPtr probe = env::make_environment(game, 1);
  const std::size_t actions = probe->action_count();
  const auto frame_shape = probe->observation_shape();

  const std::string ckpt = config_.cache_dir + "/seq2seq_" + key + ".ckpt";
  const std::string meta = config_.cache_dir + "/seq2seq_" + key + ".meta";

  ApproximatorInfo info;
  // Try the cache: meta holds "n accuracy".
  if (std::filesystem::exists(ckpt) && std::filesystem::exists(meta)) {
    std::ifstream meta_in(meta);
    std::size_t n = 0;
    double acc = 0.0;
    if (meta_in >> n >> acc && n > 0) {
      auto model = std::make_unique<seq2seq::Seq2SeqModel>(
          approx_config(game, actions, frame_shape, n, output_steps),
          config_.seed);
      if (nn::load_parameters(model->params(), ckpt)) {
        util::log_info("zoo: loaded approximator ", key, " (n = ", n,
                       ", acc = ", acc, ")");
        info.model = model.get();
        info.input_steps = n;
        info.accuracy = acc;
        info.from_cache = true;
        models_.emplace(key, std::move(model));
        infos_.emplace(key, info);
        return info;
      }
    }
  }

  // Train via Algorithm 1.
  obs::Span span(
      obs::MetricsRegistry::global().span("zoo.train_approximator"));
  const auto& data = episodes(game, source);
  const auto candidates = length_candidates(game);
  const seq2seq::TrainSettings settings = seq2seq_settings(game);
  util::log_info("zoo: training approximator ", key, " (Algorithm 1, ",
                 settings.epochs, " epochs)");
  auto make_config = [&](std::size_t n) {
    return approx_config(game, actions, frame_shape, n, output_steps);
  };
  seq2seq::ApproximatorResult result = seq2seq::build_approximator(
      data, candidates, make_config, settings,
      config_.seed ^ std::hash<std::string>{}(key));
  util::log_info("zoo: approximator ", key,
                 " trained: n = ", result.search.best_length,
                 ", eval accuracy = ", result.outcome.eval_accuracy);

  info.model = result.model.get();
  info.input_steps = result.search.best_length;
  info.accuracy = result.outcome.eval_accuracy;
  info.search = result.search;
  if (!nn::save_parameters(result.model->params(), ckpt)) {
    util::log_warn("zoo: failed to checkpoint approximator to ", ckpt);
  } else {
    std::ofstream meta_out(meta, std::ios::trunc);
    meta_out << info.input_steps << ' ' << info.accuracy << '\n';
  }
  models_.emplace(key, std::move(result.model));
  infos_.emplace(key, info);
  return info;
}

}  // namespace rlattack::core
