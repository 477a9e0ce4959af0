// Determinism contract of the episode driver and the experiment drivers
// built on it. run_episode_jobs runs every job list through one rendezvous
// that batches the in-flight episodes' victim and approximator queries; the
// SerialOracle* tests compare its outcomes, bit for bit, with a plain loop
// over AttackSession::run_episode with no planner — the single-row path
// the CLI and a one-attacker run take. Registered with CTest twice —
// RLATTACK_THREADS=1 and =4 — like kernels_test, so every comparison runs
// both with a serial pool and with a 4-worker pool under the flushes'
// GEMMs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "deadline.hpp"
#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/core/experiments.hpp"
#include "rlattack/obs/forensics.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/rl/agent.hpp"
#include "rlattack/rl/batch.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::core {
namespace {

using rlattack::testing::within_deadline;

class ExperimentsParallelTest : public ::testing::Test {
 protected:
  // One artefact cache for the whole suite: the first test trains the tiny
  // victims/approximators, later tests load them from checkpoints.
  static void SetUpTestSuite() {
    // Per-process path: CTest runs the .threads1 and .threads4 registrations
    // of this binary concurrently, and they must not share (and delete) one
    // training cache under each other.
    cache_ = ::testing::TempDir() + "rlattack_parallel_cache_" +
             std::to_string(::getpid());
    std::filesystem::remove_all(cache_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(cache_);
    std::filesystem::remove_all(cache_ + "_timebomb");
  }

  static Zoo make_tiny_zoo() {
    ZooConfig cfg;
    cfg.cache_dir = cache_;
    cfg.scale = 0.02;  // ~8 training episodes, 2 seq2seq epochs
    cfg.seed = 7;
    cfg.verbose = false;
    return Zoo(cfg);
  }

  static std::string cache_;
};

std::string ExperimentsParallelTest::cache_;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST_F(ExperimentsParallelTest, RewardExperimentBitIdenticalAcrossThreads) {
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kGaussian, attack::Kind::kFgsm};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 1000;

  // Two runs through the rendezvous, whose flushes interleave the episodes
  // differently from run to run, must agree bit for bit.
  ExperimentTiming first_timing;
  const auto first = run_reward_experiment(zoo, cfg, &first_timing);
  ExperimentTiming second_timing;
  const auto second = run_reward_experiment(zoo, cfg, &second_timing);

  // One host per job: the 12 jobs are fewer than the rendezvous width.
  EXPECT_EQ(first_timing.hosts, 12u);
  EXPECT_EQ(second_timing.hosts, 12u);
  EXPECT_EQ(second_timing.episodes, 2u * 2u * 3u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].attack, second[i].attack) << "row " << i;
    EXPECT_EQ(first[i].l2_budget, second[i].l2_budget) << "row " << i;
    EXPECT_EQ(first[i].mean_reward, second[i].mean_reward) << "row " << i;
    EXPECT_EQ(first[i].stddev_reward, second[i].stddev_reward)
        << "row " << i;
    EXPECT_EQ(first[i].mean_realised_l2, second[i].mean_realised_l2)
        << "row " << i;
    EXPECT_EQ(first[i].sequence_variant, second[i].sequence_variant)
        << "row " << i;
  }
}

TEST_F(ExperimentsParallelTest,
       TransferabilityExperimentBitIdenticalAcrossThreads) {
  Zoo zoo = make_tiny_zoo();
  TransferabilityConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kGaussian, attack::Kind::kFgsm};
  cfg.l2_budgets = {0.5, 1.0};
  cfg.runs = 3;
  cfg.seed = 2000;

  const auto first = run_transferability_experiment(zoo, cfg);
  const auto second = run_transferability_experiment(zoo, cfg);

  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].attack, second[i].attack) << "row " << i;
    EXPECT_EQ(first[i].l2_budget, second[i].l2_budget) << "row " << i;
    EXPECT_EQ(first[i].transfer_rate, second[i].transfer_rate)
        << "row " << i;
    EXPECT_EQ(first[i].samples, second[i].samples) << "row " << i;
  }
}

TEST_F(ExperimentsParallelTest, TimebombExperimentBitIdenticalAcrossThreads) {
  // The time-bomb driver trains the m = max(delay)+1 approximator, whose
  // length search needs observation episodes of >= n + m steps — more than
  // the 0.02 zoo's single short episode provides. Use a slightly larger zoo
  // with its own cache (checkpoint keys do not encode the scale).
  ZooConfig zcfg;
  zcfg.cache_dir = cache_ + "_timebomb";
  zcfg.scale = 0.1;
  zcfg.seed = 7;
  zcfg.verbose = false;
  Zoo zoo(zcfg);
  TimeBombConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.victim_algorithm = rl::Algorithm::kDqn;
  cfg.approximator_source = rl::Algorithm::kDqn;
  cfg.attack_kind = attack::Kind::kFgsm;
  cfg.epsilon_linf = 0.3f;
  cfg.delays = {1, 2, 3};
  cfg.runs = 3;
  cfg.seed = 3000;

  const auto first = run_timebomb_experiment(zoo, cfg);
  ExperimentTiming timing;
  const auto second = run_timebomb_experiment(zoo, cfg, &timing);

  // 3 delays x 3 runs x (clean + attacked) episodes.
  EXPECT_EQ(timing.episodes, 3u * 3u * 2u);
  EXPECT_EQ(timing.hosts, 3u * 3u * 2u);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].delay, second[i].delay) << "row " << i;
    EXPECT_EQ(first[i].trials, second[i].trials) << "row " << i;
    EXPECT_EQ(first[i].success_rate, second[i].success_rate)
        << "row " << i;
  }
}

TEST_F(ExperimentsParallelTest, ZooEpisodeLoopsBitIdenticalAcrossThreads) {
  // Zoo::victim_score and Zoo::episodes play their seeded greedy episodes
  // one after another on the victim itself; only the kernels inside each
  // forward reach the pool. Scores and traces must not depend on its size.
  struct PoolRestore {
    ~PoolRestore() { util::ThreadPool::reset_global(0); }
  } restore;
  struct Loops {
    double score = 0.0;
    std::vector<env::Episode> episodes;
  };
  const auto run_loops = [](std::size_t threads) {
    util::ThreadPool::reset_global(threads);
    Zoo zoo = make_tiny_zoo();  // same cache: identical artefacts
    Loops out;
    out.score =
        zoo.victim_score(env::Game::kCartPole, rl::Algorithm::kDqn, 6);
    out.episodes = zoo.episodes(env::Game::kCartPole, rl::Algorithm::kDqn);
    return out;
  };
  const Loops serial = run_loops(1);
  const Loops pooled = run_loops(4);

  EXPECT_EQ(bits(serial.score), bits(pooled.score));
  ASSERT_EQ(serial.episodes.size(), pooled.episodes.size());
  for (std::size_t e = 0; e < serial.episodes.size(); ++e) {
    const auto& serial_steps = serial.episodes[e].steps;
    const auto& pooled_steps = pooled.episodes[e].steps;
    ASSERT_EQ(serial_steps.size(), pooled_steps.size()) << "episode " << e;
    for (std::size_t s = 0; s < serial_steps.size(); ++s) {
      const env::Transition& a = serial_steps[s];
      const env::Transition& b = pooled_steps[s];
      EXPECT_EQ(a.action, b.action) << "episode " << e << " step " << s;
      EXPECT_EQ(bits(a.reward), bits(b.reward))
          << "episode " << e << " step " << s;
      EXPECT_EQ(a.done, b.done) << "episode " << e << " step " << s;
      ASSERT_EQ(a.observation.shape(), b.observation.shape());
      for (std::size_t i = 0; i < a.observation.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(a.observation[i]),
                  std::bit_cast<std::uint32_t>(b.observation[i]))
            << "episode " << e << " step " << s << " obs " << i;
    }
  }
}

TEST_F(ExperimentsParallelTest, CloneContractHoldsForAgents) {
  // A clone is an independent evaluation copy with the same greedy policy.
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  rl::AgentPtr copy = victim.clone();
  nn::Tensor probe({4}, {0.05f, -0.2f, 0.11f, 0.4f});
  EXPECT_EQ(copy->action_count(), victim.action_count());
  EXPECT_EQ(copy->algorithm(), victim.algorithm());
  EXPECT_EQ(copy->act(probe, false), victim.act(probe, false));
}

// Telemetry must only observe: result rows are bit-identical with metrics
// enabled and disabled. (Registered under RLATTACK_THREADS=1 and =4 like
// the rest of this suite, so the global-pool dimension is covered too.)
TEST_F(ExperimentsParallelTest, MetricsOnOffRowsBitIdentical) {
  const bool saved = obs::metrics_enabled();
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm, attack::Kind::kPgd};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 1000;

  std::vector<std::vector<RewardPoint>> results;  // [on, off]
  for (bool enabled : {true, false}) {
    obs::set_metrics_enabled(enabled);
    results.push_back(run_reward_experiment(zoo, cfg, nullptr));
  }
  obs::set_metrics_enabled(saved);

  const auto& reference = results.front();
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), reference.size()) << "variant " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[v][i].attack, reference[i].attack)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].l2_budget, reference[i].l2_budget)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_reward, reference[i].mean_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].stddev_reward, reference[i].stddev_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_realised_l2, reference[i].mean_realised_l2)
          << "variant " << v << " row " << i;
    }
  }
}

// The tracing layer has the same only-observe contract as metrics: result
// rows must be bit-identical with tracing enabled and disabled. A disabled
// TraceScope takes no clock reading;
// an enabled one records wall-clock but must never feed back into RNG,
// environment or model state.
TEST_F(ExperimentsParallelTest, TraceOnOffRowsBitIdentical) {
  const bool saved = obs::trace_enabled();
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm, attack::Kind::kPgd};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 1500;

  std::vector<std::vector<RewardPoint>> results;  // [on, off]
  for (bool enabled : {true, false}) {
    obs::set_trace_enabled(enabled);
    results.push_back(run_reward_experiment(zoo, cfg, nullptr));
  }
  obs::set_trace_enabled(saved);
  // The traced variants actually recorded a timeline (episode.run spans at
  // minimum) — this test must not pass vacuously with tracing broken.
  EXPECT_FALSE(obs::TraceLog::global().events().empty());
  obs::TraceLog::global().reset();

  const auto& reference = results.front();
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), reference.size()) << "variant " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[v][i].attack, reference[i].attack)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].l2_budget, reference[i].l2_budget)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_reward, reference[i].mean_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].stddev_reward, reference[i].stddev_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_realised_l2, reference[i].mean_realised_l2)
          << "variant " << v << " row " << i;
    }
  }
}

// --- Serial oracle --------------------------------------------------------
//
// Each job list runs twice: through run_episode_jobs (one rendezvous, up to
// attack::eval_batch_width() hosts) and as a plain loop of
// AttackSession::run_episode with no planner. Every EpisodeOutcome field
// must agree bit for bit.

std::vector<EpisodeOutcome> run_jobs_serially(
    rl::Agent& victim, env::Game game, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs) {
  std::vector<EpisodeOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (const EpisodeJob& job : jobs) {
    attack::AttackPtr attacker = attack::make_attack(job.attack);
    AttackSession session(victim, game, model, *attacker, job.budget);
    outcomes.push_back(session.run_episode(job.policy, job.seed));
  }
  return outcomes;
}

void expect_outcomes_bit_identical(const std::vector<EpisodeOutcome>& actual,
                                   const std::vector<EpisodeOutcome>& oracle) {
  ASSERT_EQ(actual.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    const EpisodeOutcome& a = actual[i];
    const EpisodeOutcome& o = oracle[i];
    EXPECT_EQ(bits(a.total_reward), bits(o.total_reward)) << "job " << i;
    EXPECT_EQ(a.steps, o.steps) << "job " << i;
    EXPECT_EQ(a.attacks_attempted, o.attacks_attempted) << "job " << i;
    EXPECT_EQ(a.immediate_flips, o.immediate_flips) << "job " << i;
    EXPECT_EQ(a.fired_step, o.fired_step) << "job " << i;
    EXPECT_EQ(bits(a.mean_l2), bits(o.mean_l2)) << "job " << i;
    EXPECT_EQ(bits(a.mean_linf), bits(o.mean_linf)) << "job " << i;
    EXPECT_EQ(a.actions, o.actions) << "job " << i;
  }
}

/// Runs `jobs` both ways against the same victim and model and compares.
/// Returns the oracle's outcomes so callers can check the list exercised
/// what it was built for.
std::vector<EpisodeOutcome> expect_driver_matches_oracle(
    rl::Agent& victim, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs) {
  const std::vector<EpisodeOutcome> driven =
      run_episode_jobs(victim, env::Game::kCartPole, model, jobs);
  const std::vector<EpisodeOutcome> oracle =
      run_jobs_serially(victim, env::Game::kCartPole, model, jobs);
  expect_outcomes_bit_identical(driven, oracle);
  return oracle;
}

/// Fig 4-6 reward rows: every-step untargeted attacks over an L2 budget
/// grid; budget-0 rows are clean runs, as in run_reward_experiment.
std::vector<EpisodeJob> reward_jobs(const std::vector<attack::Kind>& kinds,
                                    const std::vector<float>& budgets,
                                    std::size_t runs, std::uint64_t seed,
                                    bool random_position) {
  std::vector<EpisodeJob> jobs;
  for (attack::Kind kind : kinds) {
    for (float budget : budgets) {
      EpisodeJob job;
      job.attack = kind;
      job.budget = attack::Budget{attack::Budget::Norm::kL2, budget};
      job.policy.mode = budget > 0.0f ? AttackPolicy::Mode::kEveryStep
                                      : AttackPolicy::Mode::kNone;
      job.policy.goal_mode = attack::Goal::Mode::kUntargeted;
      job.policy.random_position = random_position;
      for (std::size_t run = 0; run < runs; ++run) {
        job.seed = seed + run;
        jobs.push_back(job);
      }
    }
  }
  return jobs;
}

std::size_t total_attacks(const std::vector<EpisodeOutcome>& outcomes) {
  std::size_t n = 0;
  for (const EpisodeOutcome& o : outcomes) n += o.attacks_attempted;
  return n;
}

/// An untrained m = 10 CartPole approximator: the parity contract holds for
/// any weights, and the tiny zoo's traces are too short to train m = 10.
seq2seq::Seq2SeqModel sequence_model() {
  return seq2seq::Seq2SeqModel(
      seq2seq::make_cartpole_seq2seq_config(/*input_steps=*/3,
                                            /*output_steps=*/10),
      /*seed=*/31);
}

TEST_F(ExperimentsParallelTest, SerialOracleRewardSweep) {
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  const std::vector<EpisodeJob> jobs = reward_jobs(
      {attack::Kind::kGaussian, attack::Kind::kFgsm, attack::Kind::kPgd,
       attack::Kind::kCw, attack::Kind::kJsma},
      {0.0f, 0.5f}, /*runs=*/2, /*seed=*/6000, /*random_position=*/false);
  const auto oracle = expect_driver_matches_oracle(victim, *approx.model, jobs);
  EXPECT_GT(total_attacks(oracle), 0u);
}

TEST_F(ExperimentsParallelTest, SerialOracleRandomPositionSweep) {
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  seq2seq::Seq2SeqModel model = sequence_model();
  const std::vector<EpisodeJob> jobs = reward_jobs(
      {attack::Kind::kFgsm, attack::Kind::kPgd}, {0.0f, 0.5f, 1.0f},
      /*runs=*/2, /*seed=*/6100, /*random_position=*/true);
  const auto oracle = expect_driver_matches_oracle(victim, model, jobs);
  EXPECT_GT(total_attacks(oracle), 0u);
}

TEST_F(ExperimentsParallelTest, SerialOracleTimeBomb) {
  // Fig 8-9 pairs: a clean counterfactual and a single-step targeted
  // runner-up attack of the same seed, adjacent in the list.
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  seq2seq::Seq2SeqModel model = sequence_model();
  std::vector<EpisodeJob> jobs;
  for (std::size_t delay : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    for (std::size_t run = 0; run < 3; ++run) {
      EpisodeJob clean;
      clean.attack = attack::Kind::kFgsm;
      clean.budget = attack::Budget{attack::Budget::Norm::kLinf, 0.3f};
      clean.policy.mode = AttackPolicy::Mode::kNone;
      clean.seed = 6200 + 100 * delay + run;
      jobs.push_back(clean);

      EpisodeJob bomb = clean;
      bomb.policy.mode = AttackPolicy::Mode::kSingleStep;
      bomb.policy.trigger_step = model.config().input_steps + run;
      bomb.policy.goal_mode = attack::Goal::Mode::kTargeted;
      bomb.policy.position = delay;
      bomb.policy.runner_up_target = true;
      jobs.push_back(bomb);
    }
  }
  const auto oracle = expect_driver_matches_oracle(victim, model, jobs);
  std::size_t fired = 0;
  for (const EpisodeOutcome& o : oracle)
    if (o.fired_step != static_cast<std::size_t>(-1)) ++fired;
  EXPECT_GT(fired, 0u);
}

TEST_F(ExperimentsParallelTest, SerialOracleOneJob) {
  // A one-job list runs through the rendezvous with a single host.
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  const std::vector<EpisodeJob> jobs =
      reward_jobs({attack::Kind::kPgd}, {0.5f}, /*runs=*/1, /*seed=*/6300,
                  /*random_position=*/false);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(episode_hosts(jobs), 1u);
  const auto oracle = expect_driver_matches_oracle(victim, *approx.model, jobs);
  EXPECT_GT(total_attacks(oracle), 0u);
}

TEST_F(ExperimentsParallelTest, SerialOracleMoreJobsThanHosts) {
  // More jobs than the rendezvous width: hosts pull a second job while
  // other episodes are still in flight.
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  const std::vector<EpisodeJob> jobs = reward_jobs(
      {attack::Kind::kGaussian, attack::Kind::kFgsm}, {0.0f, 0.5f},
      /*runs=*/10, /*seed=*/6400, /*random_position=*/false);
  ASSERT_GT(jobs.size(), attack::eval_batch_width());
  EXPECT_EQ(episode_hosts(jobs), attack::eval_batch_width());
  const auto oracle = expect_driver_matches_oracle(victim, *approx.model, jobs);
  EXPECT_GT(total_attacks(oracle), 0u);
}

// Forensics attribution: with rows from concurrent episodes fused into
// shared forwards, every per-step forensics record must still land on the
// episode that owns the step, with per-step query deltas unchanged. The
// export is sorted by (episode_key, seed, step), so the comparison with
// the serial oracle's export is byte-exact.
TEST_F(ExperimentsParallelTest, SerialOracleForensicsAttribution) {
  Zoo zoo = make_tiny_zoo();
  // Zoo artefacts must exist before forensics turns on: training also steps
  // pipelines and would otherwise pollute the record stream.
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  const std::vector<EpisodeJob> jobs =
      reward_jobs({attack::Kind::kFgsm, attack::Kind::kPgd}, {0.5f},
                  /*runs=*/2, /*seed=*/5000, /*random_position=*/false);

  const bool saved_forensics = obs::forensics_enabled();
  obs::forensics_detail::g_forensics_enabled.store(true,
                                                   std::memory_order_relaxed);
  const auto export_of = [](const auto& run) {
    obs::forensics_reset();
    (void)run();
    std::string jsonl = obs::forensics_to_jsonl();
    obs::forensics_reset();
    return jsonl;
  };
  const std::string serial = export_of([&] {
    return run_jobs_serially(victim, env::Game::kCartPole, *approx.model,
                             jobs);
  });
  const std::string driven = export_of([&] {
    return run_episode_jobs(victim, env::Game::kCartPole, *approx.model, jobs);
  });
  obs::forensics_detail::g_forensics_enabled.store(
      saved_forensics, std::memory_order_relaxed);

  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(driven, serial);
}

// --- Failure containment -------------------------------------------------
//
// An exception anywhere in the rendezvous — the victim inside a flush, an
// attack in its episode's fiber — must surface as that exception in the
// caller, in bounded time, without stranding the other episodes or
// terminating the process.

struct VictimFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Victim decorator whose k-th act_batch call throws. act_batch only runs
/// inside a flush, on the scheduler's thread, so the count needs no lock.
class ThrowingVictim final : public rl::Agent {
 public:
  ThrowingVictim(rl::Agent& inner, std::size_t throw_on)
      : inner_(inner), throw_on_(throw_on) {}
  std::size_t act(const nn::Tensor& observation, bool explore) override {
    return inner_.act(observation, explore);
  }
  std::vector<std::size_t> act_batch(const nn::Tensor& observations,
                                     bool explore) override {
    if (++calls_ == throw_on_)
      throw VictimFault("act_batch call " + std::to_string(calls_));
    return inner_.act_batch(observations, explore);
  }
  void learn(const nn::Tensor&, std::size_t, double, const nn::Tensor&,
             bool) override {}
  std::string algorithm() const override { return inner_.algorithm(); }
  nn::Layer& network() override { return inner_.network(); }
  std::size_t action_count() const override { return inner_.action_count(); }
  std::unique_ptr<rl::Agent> clone() override { return inner_.clone(); }

 private:
  rl::Agent& inner_;
  std::size_t throw_on_;
  std::size_t calls_ = 0;
};

TEST_F(ExperimentsParallelTest, ContainmentVictimThrowingInFlushSurfaces) {
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  const std::vector<EpisodeJob> jobs = reward_jobs(
      {attack::Kind::kFgsm, attack::Kind::kPgd}, {0.0f, 0.5f}, /*runs=*/3,
      /*seed=*/7000, /*random_position=*/false);
  ThrowingVictim faulty(victim, /*throw_on=*/5);
  within_deadline(std::chrono::seconds(120), [&] {
    EXPECT_THROW(
        run_episode_jobs(faulty, env::Game::kCartPole, *approx.model, jobs),
        VictimFault);
  });
  // Nothing of the failed call lingers: the same victim and model run the
  // list cleanly and still match the serial oracle.
  within_deadline(std::chrono::seconds(120), [&] {
    expect_driver_matches_oracle(victim, *approx.model, jobs);
  });
}

struct AttackFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Zero-perturbation attack that queries the model and throws on its k-th
/// craft.
class ThrowingAttack final : public attack::Attack {
 public:
  explicit ThrowingAttack(std::size_t throw_on) : throw_on_(throw_on) {}
  using attack::Attack::perturb;
  nn::Tensor perturb(attack::CraftContext& ctx, const attack::Goal&,
                     const attack::Budget&, env::ObservationBounds,
                     util::Rng&) override {
    (void)ctx.predict_actions();
    if (++calls_ == throw_on_)
      throw AttackFault("craft " + std::to_string(calls_));
    return ctx.inputs().current_obs;
  }
  std::string name() const override { return "throwing"; }

 private:
  std::size_t throw_on_;
  std::size_t calls_ = 0;
};

TEST_F(ExperimentsParallelTest, ContainmentAttackThrowingMidEpisodeSurfaces) {
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  seq2seq::Seq2SeqModel& model = *approx.model;
  const attack::Budget budget{attack::Budget::Norm::kL2, 0.5f};
  AttackPolicy every_step;
  every_step.mode = AttackPolicy::Mode::kEveryStep;

  // Two sessions in one rendezvous, as two fibers: the one whose attack
  // throws on its third craft sees its exception; the other plays its
  // episode to the end with the same outcome as alone.
  attack::BatchedCraftPlanner planner(model);
  planner.set_victim_handler(
      [&victim](
          std::span<attack::BatchedCraftPlanner::EvalProbe* const> probes) {
        std::vector<const nn::Tensor*> rows(probes.size());
        for (std::size_t r = 0; r < probes.size(); ++r)
          rows[r] = probes[r]->observation;
        const std::vector<std::size_t> actions =
            victim.act_batch(rl::batch_observations(rows), false);
        for (std::size_t r = 0; r < probes.size(); ++r)
          probes[r]->action = actions[r];
      });
  ThrowingAttack thrower(/*throw_on=*/3);
  attack::AttackPtr fgsm = attack::make_attack(attack::Kind::kFgsm);
  AttackSession faulty(victim, env::Game::kCartPole, model, thrower, budget);
  AttackSession healthy(victim, env::Game::kCartPole, model, *fgsm, budget);
  EpisodeOutcome shared;
  within_deadline(std::chrono::seconds(120), [&] {
    EXPECT_THROW(planner.run(2,
                             [&](std::size_t fiber) {
                               if (fiber == 0)
                                 shared = healthy.run_episode(every_step, 7100,
                                                              &planner);
                               else
                                 (void)faulty.run_episode(every_step, 7101,
                                                          &planner);
                             }),
                 AttackFault);
  });
  expect_outcomes_bit_identical({shared},
                                {healthy.run_episode(every_step, 7100)});

  // Through the driver, an attack that throws mid-episode: a time-bomb job
  // aimed at an action CartPole does not have fails at its trigger step,
  // while the other jobs run in the same rendezvous.
  std::vector<EpisodeJob> jobs = reward_jobs(
      {attack::Kind::kFgsm, attack::Kind::kPgd}, {0.0f, 0.5f}, /*runs=*/2,
      /*seed=*/7200, /*random_position=*/false);
  EpisodeJob bomb;
  bomb.attack = attack::Kind::kFgsm;
  bomb.budget = attack::Budget{attack::Budget::Norm::kLinf, 0.3f};
  bomb.policy.mode = AttackPolicy::Mode::kSingleStep;
  bomb.policy.trigger_step = model.config().input_steps + 2;
  bomb.policy.goal_mode = attack::Goal::Mode::kTargeted;
  bomb.policy.runner_up_target = false;
  bomb.policy.target_action = 7;
  bomb.seed = 7300;
  jobs.insert(jobs.begin() + 3, bomb);
  within_deadline(std::chrono::seconds(120), [&] {
    try {
      (void)run_episode_jobs(victim, env::Game::kCartPole, model, jobs);
      ADD_FAILURE() << "run_episode_jobs returned";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("current_obs_gradient"),
                std::string::npos)
          << e.what();
    }
  });
}

// The instrumentation that rode along with the experiment above actually
// fired: crafting gradient queries and pipeline step counters are non-zero
// after an attacked episode ran with metrics enabled.
TEST_F(ExperimentsParallelTest, MetricsInstrumentationObservesExperiment) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& gradient_queries =
      registry.counter("attack.queries.gradient");
  obs::Counter& steps = registry.counter("pipeline.steps");
  obs::Counter& gemm_flops = registry.counter("nn.gemm.flops");
  const std::uint64_t gradient_before = gradient_queries.value();
  const std::uint64_t steps_before = steps.value();
  const std::uint64_t flops_before = gemm_flops.value();

  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm};
  cfg.l2_budgets = {0.5};
  cfg.runs = 2;
  cfg.seed = 1000;
  (void)run_reward_experiment(zoo, cfg, nullptr);
  obs::set_metrics_enabled(saved);

  EXPECT_GT(gradient_queries.value(), gradient_before);
  EXPECT_GT(steps.value(), steps_before);
  EXPECT_GT(gemm_flops.value(), flops_before);
  EXPECT_GT(registry.span("experiment.reward").snapshot().count(), 0u);
  EXPECT_GT(registry.span("seq2seq.forward").snapshot().count(), 0u);
}

}  // namespace
}  // namespace rlattack::core
