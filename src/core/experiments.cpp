#include "rlattack/core/experiments.hpp"

#include <algorithm>

#include "rlattack/obs/metrics.hpp"
#include "rlattack/util/log.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::core {

namespace {

// Driver-level wall timing is a telemetry span in always-measure mode: the
// clock runs even with metrics disabled so ExperimentTiming (and hence
// bench_times.csv) keeps reporting wall seconds, but the aggregate metric is
// only recorded when telemetry is on.
obs::Span experiment_span(const char* metric) {
  return obs::Span(obs::MetricsRegistry::global().span(metric),
                   /*always=*/true);
}

void finish_timing(ExperimentTiming* timing, obs::Span& span,
                   const std::vector<EpisodeJob>& jobs, const char* name) {
  span.stop();
  const double wall = span.seconds();
  const std::size_t hosts = episode_hosts(jobs);
  if (timing) {
    timing->wall_seconds = wall;
    timing->hosts = hosts;
    timing->episodes = jobs.size();
  }
  util::log_info(name, ": ", jobs.size(), " episodes in ", wall, " s (",
                 hosts, " episode hosts)");
}

}  // namespace

std::vector<RewardPoint> run_reward_experiment(
    Zoo& zoo, const RewardExperimentConfig& config,
    ExperimentTiming* timing) {
  obs::Span span = experiment_span("experiment.reward");
  rl::Agent& victim = zoo.victim(config.game, config.algorithm);
  const std::size_t m = config.sequence_variant ? 10 : 1;
  // The approximator is always trained from DQN traces (the paper trains
  // the seq2seq against DQN and transfers to the other algorithms).
  ApproximatorInfo approx =
      zoo.approximator(config.game, rl::Algorithm::kDqn, m);

  // Flatten the (attack x budget) grid into seed-deterministic episode
  // jobs, one per run.
  struct Cell {
    attack::Kind kind;
    double budget;
  };
  std::vector<Cell> cells;
  std::vector<EpisodeJob> jobs;
  for (attack::Kind kind : config.attacks) {
    for (double budget : config.l2_budgets) {
      cells.push_back({kind, budget});
      EpisodeJob job;
      job.attack = kind;
      job.budget = attack::Budget{attack::Budget::Norm::kL2,
                                  static_cast<float>(budget)};
      job.policy.mode = budget > 0.0 ? AttackPolicy::Mode::kEveryStep
                                     : AttackPolicy::Mode::kNone;
      job.policy.goal_mode = attack::Goal::Mode::kUntargeted;
      job.policy.random_position = config.sequence_variant;
      for (std::size_t run = 0; run < config.runs; ++run) {
        job.seed = config.seed + run;
        jobs.push_back(job);
      }
    }
  }
  const std::vector<EpisodeOutcome> outcomes =
      run_episode_jobs(victim, config.game, *approx.model, jobs);

  // Reduce each cell in run order: the same accumulation sequence as the
  // serial loops, hence bit-identical statistics.
  std::vector<RewardPoint> points;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    util::RunningStats reward_stats, l2_stats;
    for (std::size_t run = 0; run < config.runs; ++run) {
      const EpisodeOutcome& outcome = outcomes[c * config.runs + run];
      reward_stats.add(outcome.total_reward);
      if (outcome.attacks_attempted > 0) l2_stats.add(outcome.mean_l2);
    }
    RewardPoint point;
    point.attack = cells[c].kind;
    point.l2_budget = cells[c].budget;
    point.mean_reward = reward_stats.mean();
    point.stddev_reward = reward_stats.stddev();
    point.mean_realised_l2 = l2_stats.count() > 0 ? l2_stats.mean() : 0.0;
    point.sequence_variant = config.sequence_variant;
    points.push_back(point);
    util::log_info("reward ", env::game_name(config.game), "/",
                   rl::algorithm_name(config.algorithm), " ",
                   attack::attack_name(cells[c].kind), " l2 = ",
                   cells[c].budget, " -> reward ", point.mean_reward,
                   " +/- ", point.stddev_reward);
  }
  finish_timing(timing, span, jobs, "reward experiment");
  return points;
}

std::vector<TransferabilityPoint> run_transferability_experiment(
    Zoo& zoo, const TransferabilityConfig& config,
    ExperimentTiming* timing) {
  obs::Span span = experiment_span("experiment.transferability");
  rl::Agent& victim = zoo.victim(config.game, config.algorithm);
  ApproximatorInfo approx =
      zoo.approximator(config.game, rl::Algorithm::kDqn, 1);

  struct Cell {
    attack::Kind kind;
    double budget;
  };
  std::vector<Cell> cells;
  std::vector<EpisodeJob> jobs;
  for (attack::Kind kind : config.attacks) {
    for (double budget : config.l2_budgets) {
      cells.push_back({kind, budget});
      EpisodeJob job;
      job.attack = kind;
      job.budget = attack::Budget{attack::Budget::Norm::kL2,
                                  static_cast<float>(budget)};
      job.policy.mode = AttackPolicy::Mode::kEveryStep;
      job.policy.goal_mode = attack::Goal::Mode::kUntargeted;
      for (std::size_t run = 0; run < config.runs; ++run) {
        job.seed = config.seed + run;
        jobs.push_back(job);
      }
    }
  }
  const std::vector<EpisodeOutcome> outcomes =
      run_episode_jobs(victim, config.game, *approx.model, jobs);

  std::vector<TransferabilityPoint> points;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    std::size_t flips = 0, samples = 0;
    for (std::size_t run = 0; run < config.runs; ++run) {
      const EpisodeOutcome& outcome = outcomes[c * config.runs + run];
      flips += outcome.immediate_flips;
      samples += outcome.attacks_attempted;
    }
    TransferabilityPoint point;
    point.attack = cells[c].kind;
    point.l2_budget = cells[c].budget;
    point.samples = samples;
    point.transfer_rate =
        samples == 0 ? 0.0
                     : static_cast<double>(flips) /
                           static_cast<double>(samples);
    points.push_back(point);
    util::log_info("transfer ", env::game_name(config.game), "/",
                   rl::algorithm_name(config.algorithm), " ",
                   attack::attack_name(cells[c].kind), " l2 = ",
                   cells[c].budget, " -> rate ", point.transfer_rate, " (",
                   samples, " samples)");
  }
  finish_timing(timing, span, jobs, "transferability experiment");
  return points;
}

std::vector<TimeBombPoint> run_timebomb_experiment(
    Zoo& zoo, const TimeBombConfig& config, ExperimentTiming* timing) {
  obs::Span span = experiment_span("experiment.timebomb");
  rl::Agent& victim = zoo.victim(config.game, config.victim_algorithm);
  // The approximator predicts the future-action sequence the delays index
  // into: m = max delay + 1, capped at the paper's Seq-model length of 10
  // (Table 2). The default delays {1..9} reproduce the paper's m = 10.
  std::size_t max_delay = 0;
  for (std::size_t delay : config.delays)
    max_delay = std::max(max_delay, delay);
  const std::size_t m = std::min<std::size_t>(10, max_delay + 1);
  ApproximatorInfo approx =
      zoo.approximator(config.game, config.approximator_source, m);
  const attack::Budget budget{attack::Budget::Norm::kLinf,
                              config.epsilon_linf};
  const std::size_t output_steps = approx.model->config().output_steps;

  // Each (delay, run) needs a clean counterfactual and an attacked episode
  // of the same seed: two jobs, adjacent in the flattened list. Trigger
  // steps are pre-drawn per delay in run order, preserving the serial
  // drivers' RNG stream.
  std::vector<std::size_t> delays;
  std::vector<EpisodeJob> jobs;
  for (std::size_t delay : config.delays) {
    if (delay >= output_steps) {
      util::log_warn("timebomb: delay ", delay,
                     " beyond output sequence; skipping");
      continue;
    }
    delays.push_back(delay);
    util::Rng trigger_rng(config.seed ^ (0xD00Du + delay));
    for (std::size_t run = 0; run < config.runs; ++run) {
      const std::uint64_t episode_seed = config.seed + 100 * delay + run;
      EpisodeJob clean;
      clean.attack = config.attack_kind;
      clean.budget = budget;
      clean.policy.mode = AttackPolicy::Mode::kNone;
      clean.seed = episode_seed;
      jobs.push_back(clean);

      EpisodeJob bomb;
      bomb.attack = config.attack_kind;
      bomb.budget = budget;
      bomb.policy.mode = AttackPolicy::Mode::kSingleStep;
      bomb.policy.trigger_step =
          approx.input_steps + trigger_rng.uniform_int(std::size_t{10});
      bomb.policy.goal_mode = attack::Goal::Mode::kTargeted;
      bomb.policy.position = delay;
      bomb.policy.runner_up_target = true;
      bomb.seed = episode_seed;
      jobs.push_back(bomb);
    }
  }
  const std::vector<EpisodeOutcome> outcomes =
      run_episode_jobs(victim, config.game, *approx.model, jobs);

  std::vector<TimeBombPoint> points;
  for (std::size_t d = 0; d < delays.size(); ++d) {
    const std::size_t delay = delays[d];
    std::size_t successes = 0, trials = 0;
    for (std::size_t run = 0; run < config.runs; ++run) {
      const std::size_t base = 2 * (d * config.runs + run);
      const EpisodeOutcome& baseline = outcomes[base];
      const EpisodeOutcome& attacked = outcomes[base + 1];
      if (attacked.fired_step == static_cast<std::size_t>(-1))
        continue;  // episode too short for the FIFO to fill
      const std::size_t check = attacked.fired_step + delay;
      if (baseline.actions.size() <= check) continue;  // no counterfactual
      ++trials;
      if (attacked.actions.size() <= check) {
        // The perturbation changed the trajectory so strongly the episode
        // ended before t + delay; the behaviour at the target time changed.
        ++successes;
      } else if (attacked.actions[check] != baseline.actions[check]) {
        ++successes;
      }
    }
    TimeBombPoint point;
    point.delay = delay;
    point.trials = trials;
    point.success_rate = trials == 0 ? 0.0
                                     : static_cast<double>(successes) /
                                           static_cast<double>(trials);
    points.push_back(point);
    util::log_info("timebomb ", env::game_name(config.game), "/",
                   rl::algorithm_name(config.victim_algorithm), " eps = ",
                   config.epsilon_linf, " delay ", delay, " -> rate ",
                   point.success_rate, " (", trials, " trials)");
  }
  finish_timing(timing, span, jobs, "timebomb experiment");
  return points;
}

util::TableWriter threat_model_table() {
  util::TableWriter table({"Attacker access", "DNN weights", "DNN structure",
                           "Train algorithm", "Train environment"});
  // Table 1 of the paper (3 = required/known to the attacker, 7 = not).
  table.add_row({"Huang et al. 1", "no", "yes", "yes", "yes"});
  table.add_row({"Huang et al. 2", "no", "yes", "no", "yes"});
  table.add_row({"Behzadan and Munir", "no", "no", "yes", "yes"});
  table.add_row({"Lin et al.", "yes", "yes", "no", "no"});
  table.add_row({"Ours (this repo)", "no", "no", "no", "no"});
  return table;
}

}  // namespace rlattack::core
