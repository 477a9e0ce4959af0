// perfbench_driver: runs one benchmark workload against the public rlattack
// API and streams its measurements to stdout, one JSON object per line
// prefixed with "@pb ". run.py owns the process, the deadline, the output
// check and the reported metrics; this program only does the work and
// times it from outside the library:
//   - its own steady_clock spans around public calls (Zoo, run_episode_jobs,
//     AttackSession::run_episode);
//   - TimedVictim, a decorator over rl::Agent passed in as the victim.
//
// Usage:
//   perfbench_driver prepare --cache DIR
//   perfbench_driver setup   --workload W --cache DIR
//   perfbench_driver run     --workload W --seed N --seconds S --cache DIR
//                            [--act-delay-us D] [--replay-search 1]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "rlattack/core/parallel_episodes.hpp"
#include "rlattack/core/pipeline.hpp"
#include "rlattack/core/zoo.hpp"
#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/rl/factory.hpp"
#include "rlattack/rl/trainer.hpp"
#include "rlattack/seq2seq/trainer.hpp"
#include "rlattack/util/rng.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace {

using namespace rlattack;
using Clock = std::chrono::steady_clock;

// Pinned artefact set: every attack workload loads these through core::Zoo.
// Changing either constant changes every attack workload, so run.py checks
// the cache against the content hashes recorded at preparation time.
constexpr double kPinnedScale = 0.5;
constexpr std::uint64_t kPinnedSeed = 42;
// Budget of the learn workload's offline phase (core::Zoo scale).
constexpr double kLearnScale = 0.05;

constexpr env::Game kGame = env::Game::kMiniPong;

// A run keeps starting passes until both limits are met, so the frame
// percentiles always rest on at least this many intervals (p99 then has at
// least ten samples beyond it).
constexpr std::size_t kMinFrames = 1000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds consumed so far by every thread of this process.
double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Order-sensitive digest of a pass's result rows. Doubles are hashed by
/// their bits: the library promises bit-identical rows for a given seed and
/// GEMM kernel, so any drift is an output change.
class Digest {
 public:
  void add(double v) { h_ = fnv1a(h_, &v, sizeof v); }
  void add(std::uint64_t v) { h_ = fnv1a(h_, &v, sizeof v); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[1 << 14];
  while (in.read(buf, sizeof buf) || in.gcount() > 0)
    h = fnv1a(h, buf, static_cast<std::size_t>(in.gcount()));
  return h;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t pass) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + pass + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) % 1000000007ull;
}

void busy_wait_us(double us) {
  if (us <= 0.0) return;
  const auto until =
      Clock::now() + std::chrono::nanoseconds(static_cast<long>(us * 1e3));
  while (Clock::now() < until) {
  }
}

/// Timing decorator over the victim. Every policy query of an attack
/// workload passes through it: act() on the serial path, act_batch() inside
/// the rendezvous flush. Flushes run one at a time under the planner lock,
/// so the totals need no lock of their own beyond atomic adds.
class TimedVictim final : public rl::Agent {
 public:
  TimedVictim(rl::Agent& inner, double delay_us)
      : inner_(inner), delay_us_(delay_us) {}

  std::size_t act(const nn::Tensor& observation, bool explore) override {
    const auto t0 = Clock::now();
    busy_wait_us(delay_us_);
    const std::size_t action = inner_.act(observation, explore);
    finish(t0, 1);
    return action;
  }

  std::vector<std::size_t> act_batch(const nn::Tensor& observations,
                                     bool explore) override {
    const auto t0 = Clock::now();
    busy_wait_us(delay_us_);
    std::vector<std::size_t> actions = inner_.act_batch(observations, explore);
    finish(t0, observations.dim(0));
    return actions;
  }

  void begin_episode() override { inner_.begin_episode(); }
  void learn(const nn::Tensor& observation, std::size_t action, double reward,
             const nn::Tensor& next_observation, bool done) override {
    inner_.learn(observation, action, reward, next_observation, done);
  }
  std::string algorithm() const override { return inner_.algorithm(); }
  nn::Layer& network() override { return inner_.network(); }
  std::size_t action_count() const override { return inner_.action_count(); }
  std::unique_ptr<rl::Agent> clone() override { return inner_.clone(); }
  void reset_from(const rl::Agent& src) override { inner_.reset_from(src); }

  /// Call-end timestamps (seconds since `origin`) of every query since the
  /// last take_marks(); the decision-interval metrics are built from them.
  std::vector<double> take_marks() {
    std::vector<double> out;
    out.swap(marks_);
    return out;
  }
  void set_origin(Clock::time_point origin) { origin_ = origin; }

  double act_seconds() const {
    return static_cast<double>(act_ns_.load()) * 1e-9;
  }
  std::uint64_t calls() const { return calls_.load(); }
  std::uint64_t rows() const { return rows_.load(); }

 private:
  void finish(Clock::time_point t0, std::size_t rows) {
    const auto t1 = Clock::now();
    act_ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    calls_ += 1;
    rows_ += rows;
    marks_.push_back(std::chrono::duration<double>(t1 - origin_).count());
  }

  rl::Agent& inner_;
  double delay_us_;
  Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> act_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> rows_{0};
  std::vector<double> marks_;  // queries never overlap (serial, or flushes)
};

struct Options {
  std::string mode;
  std::string workload;
  std::string cache;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  double act_delay_us = 0.0;
  bool replay_search = false;
};

Options parse(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") o.workload = value;
    else if (key == "--cache") o.cache = value;
    else if (key == "--seed") o.seed = std::stoull(value);
    else if (key == "--seconds") o.seconds = std::stod(value);
    else if (key == "--act-delay-us") o.act_delay_us = std::stod(value);
    else if (key == "--replay-search") o.replay_search = value == "1";
    else throw std::invalid_argument("unknown option " + key);
  }
  if (o.cache.empty()) throw std::invalid_argument("--cache is required");
  return o;
}

/// One "@pb" line: a flat JSON object built from ordered key/value text.
class Line {
 public:
  explicit Line(const std::string& event) { kv("event", quote(event)); }
  Line& num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return kv(k, buf);
  }
  Line& str(const std::string& k, const std::string& v) {
    return kv(k, quote(v));
  }
  Line& list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[40];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.6g", v[i]);
      if (i > 0) s += ',';
      s += buf;
    }
    return kv(k, s + "]");
  }
  void emit() {
    std::cout << "@pb {" << body_ << "}\n" << std::flush;
  }

 private:
  static std::string quote(const std::string& s) { return "\"" + s + "\""; }
  Line& kv(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(k) + ": " + v;
    return *this;
  }
  std::string body_;
};

core::ZooConfig pinned_config(const std::string& cache) {
  core::ZooConfig zc;
  zc.cache_dir = cache + "/pinned";
  zc.scale = kPinnedScale;
  zc.seed = kPinnedSeed;
  zc.verbose = false;
  return zc;
}

std::uint64_t victim_trainings() {
  return obs::MetricsRegistry::global().span("zoo.train_victim").snapshot()
      .count();
}

// ---------------------------------------------------------------------------
// Workloads. Each is set up once per process, then runs passes; pass p is a
// pure function of (seed, p), so its digest can be compared across builds.

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;          // process CPU seconds over the timed region
  std::uint64_t steps = 0;     // victim env frames completed
  double step_wall_s = 0.0;    // wall seconds those frames took
  std::uint64_t attempted = 0; // episodes (attack workloads) or stages
  std::vector<double> frame_ms;
  std::string digest;
  std::map<std::string, double> extra;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  virtual PassResult pass(std::uint64_t seed) = 0;
  virtual TimedVictim* victim() { return nullptr; }
  /// Seconds spent loading pinned artefacts through core::Zoo in set-up.
  double load_s() const { return load_s_; }

 protected:
  double load_s_ = 0.0;
};

/// Shared set-up of the attack workloads: one pinned victim and
/// approximator loaded through core::Zoo, wrapped in the decorator.
class AttackWorkload : public Workload {
 public:
  AttackWorkload(const Options& o, rl::Algorithm victim_algo, std::size_t m)
      : zoo_(pinned_config(o.cache)) {
    const std::uint64_t trained_before = victim_trainings();
    const auto t0 = Clock::now();
    rl::Agent& inner = zoo_.victim(kGame, victim_algo);
    approx_ = zoo_.approximator(kGame, rl::Algorithm::kDqn, m);
    load_s_ = seconds_since(t0);
    if (!approx_.from_cache || victim_trainings() != trained_before)
      throw std::runtime_error(
          "pinned artefacts missing from the cache: run.py prepares them");
    victim_ = std::make_unique<TimedVictim>(inner, o.act_delay_us);
  }
  TimedVictim* victim() override { return victim_.get(); }

 protected:
  /// Runs one grid pass through run_episode_jobs and times it. Its decision
  /// intervals are the gaps between successive act_batch flushes, i.e.
  /// between an in-flight episode's decisions.
  std::vector<core::EpisodeOutcome> run_grid(
      const std::vector<core::EpisodeJob>& jobs, PassResult& r) {
    victim_->take_marks();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    std::vector<core::EpisodeOutcome> outcomes =
        core::run_episode_jobs(*victim_, kGame, *approx_.model, jobs, 1);
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    const std::vector<double> marks = victim_->take_marks();
    for (std::size_t i = 1; i < marks.size(); ++i)
      r.frame_ms.push_back((marks[i] - marks[i - 1]) * 1e3);
    for (const core::EpisodeOutcome& e : outcomes) r.steps += e.steps;
    r.step_wall_s = r.wall_s;
    r.attempted = outcomes.size();
    return outcomes;
  }

  core::Zoo zoo_;
  core::ApproximatorInfo approx_;
  std::unique_ptr<TimedVictim> victim_;
};

/// Fig-6-style reward sweep, action-sequence variant (m = 10, random future
/// position), every step attacked, one closed-loop rendezvous pass.
class CraftGrid final : public AttackWorkload {
 public:
  static constexpr std::size_t kRuns = 2;
  explicit CraftGrid(const Options& o)
      : AttackWorkload(o, rl::Algorithm::kDqn, 10) {}

  PassResult pass(std::uint64_t seed) override {
    const attack::Kind kinds[] = {attack::Kind::kGaussian, attack::Kind::kFgsm,
                                  attack::Kind::kPgd};
    const double budgets[] = {0.0, 0.2, 0.4, 0.8, 1.6};
    std::vector<core::EpisodeJob> jobs;
    for (attack::Kind kind : kinds) {
      for (double budget : budgets) {
        core::EpisodeJob job;
        job.attack = kind;
        job.budget = attack::Budget{attack::Budget::Norm::kL2,
                                    static_cast<float>(budget)};
        job.policy.mode = budget > 0.0 ? core::AttackPolicy::Mode::kEveryStep
                                       : core::AttackPolicy::Mode::kNone;
        job.policy.goal_mode = attack::Goal::Mode::kUntargeted;
        job.policy.random_position = true;
        for (std::size_t run = 0; run < kRuns; ++run) {
          job.seed = seed + run;
          jobs.push_back(job);
        }
      }
    }
    PassResult r;
    const std::vector<core::EpisodeOutcome> outcomes = run_grid(jobs, r);
    Digest d;
    for (std::size_t c = 0; c < outcomes.size() / kRuns; ++c) {
      double reward = 0.0;
      for (std::size_t run = 0; run < kRuns; ++run) {
        const core::EpisodeOutcome& e = outcomes[c * kRuns + run];
        reward += e.total_reward;
        d.add(static_cast<std::uint64_t>(e.steps));
        d.add(static_cast<std::uint64_t>(e.attacks_attempted));
        d.add(e.mean_l2);
      }
      d.add(reward / static_cast<double>(kRuns));
    }
    r.digest = d.hex();
    return r;
  }
};

/// Fig-9-style time-bomb sweep: Rainbow victim, m = 10 approximator from
/// DQN traces, FGSM L-inf, clean and bomb episode pairs for delays 1..9.
class BombGrid final : public AttackWorkload {
 public:
  static constexpr std::size_t kRuns = 2;
  explicit BombGrid(const Options& o)
      : AttackWorkload(o, rl::Algorithm::kRainbow, 10) {}

  PassResult pass(std::uint64_t seed) override {
    const float epsilons[] = {0.3f, 0.7f};
    std::vector<core::EpisodeJob> jobs;
    for (float eps : epsilons) {
      const attack::Budget budget{attack::Budget::Norm::kLinf, eps};
      for (std::size_t delay = 1; delay <= 9; ++delay) {
        util::Rng trigger_rng(seed ^ (0xD00Du + delay));
        for (std::size_t run = 0; run < kRuns; ++run) {
          core::EpisodeJob clean;
          clean.attack = attack::Kind::kFgsm;
          clean.budget = budget;
          clean.policy.mode = core::AttackPolicy::Mode::kNone;
          clean.seed = seed + 100 * delay + run;
          core::EpisodeJob bomb = clean;
          bomb.policy.mode = core::AttackPolicy::Mode::kSingleStep;
          bomb.policy.trigger_step =
              approx_.input_steps + trigger_rng.uniform_int(std::size_t{10});
          bomb.policy.goal_mode = attack::Goal::Mode::kTargeted;
          bomb.policy.position = delay;
          bomb.policy.runner_up_target = true;
          jobs.push_back(clean);
          jobs.push_back(bomb);
        }
      }
    }
    PassResult r;
    const std::vector<core::EpisodeOutcome> outcomes = run_grid(jobs, r);
    Digest d;
    for (std::size_t cell = 0; cell < outcomes.size() / (2 * kRuns); ++cell) {
      const std::size_t delay = cell % 9 + 1;
      std::uint64_t successes = 0, trials = 0;
      for (std::size_t run = 0; run < kRuns; ++run) {
        const core::EpisodeOutcome& clean = outcomes[2 * (cell * kRuns + run)];
        const core::EpisodeOutcome& bomb = outcomes[2 * (cell * kRuns + run) + 1];
        d.add(static_cast<std::uint64_t>(clean.steps));
        d.add(static_cast<std::uint64_t>(bomb.steps));
        if (bomb.fired_step == static_cast<std::size_t>(-1)) continue;
        const std::size_t check = bomb.fired_step + delay;
        if (clean.actions.size() <= check) continue;
        ++trials;
        if (bomb.actions.size() <= check ||
            bomb.actions[check] != clean.actions[check])
          ++successes;
      }
      d.add(successes);
      d.add(trials);
    }
    r.digest = d.hex();
    return r;
  }
};

/// The paper's threat model: one attacker, one victim, episodes back to
/// back through AttackSession::run_episode with no planner. PGD L2 = 1.0
/// on every step with the m = 1 approximator.
class LiveAttack final : public AttackWorkload {
 public:
  static constexpr std::size_t kEpisodes = 2;
  explicit LiveAttack(const Options& o)
      : AttackWorkload(o, rl::Algorithm::kDqn, 1),
        attack_(attack::make_attack(attack::Kind::kPgd)),
        session_(*victim_, kGame, *approx_.model, *attack_,
                 attack::Budget{attack::Budget::Norm::kL2, 1.0f}) {}

  PassResult pass(std::uint64_t seed) override {
    core::AttackPolicy policy;
    policy.mode = core::AttackPolicy::Mode::kEveryStep;
    policy.goal_mode = attack::Goal::Mode::kUntargeted;
    PassResult r;
    Digest d;
    double wall = 0.0;
    for (std::size_t ep = 0; ep < kEpisodes; ++ep) {
      victim_->take_marks();
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      const core::EpisodeOutcome e = session_.run_episode(policy, seed + ep);
      wall += seconds_since(t0);
      r.cpu_s += cpu_seconds() - c0;
      // Query order per step: unattacked steps make one victim query;
      // attacked steps make the clean counterfactual query, then the
      // decision. Frame time = gap between successive decisions.
      const std::vector<double> marks = victim_->take_marks();
      const std::size_t unattacked = e.steps - e.attacks_attempted;
      if (marks.size() != unattacked + 2 * e.attacks_attempted)
        throw std::runtime_error("live_attack: unexpected victim query count");
      std::vector<double> decisions(marks.begin(),
                                    marks.begin() + static_cast<long>(unattacked));
      for (std::size_t k = 0; k < e.attacks_attempted; ++k)
        decisions.push_back(marks[unattacked + 2 * k + 1]);
      for (std::size_t s = std::max<std::size_t>(unattacked, 1);
           s < decisions.size(); ++s)
        r.frame_ms.push_back((decisions[s] - decisions[s - 1]) * 1e3);
      r.steps += e.steps;
      d.add(e.total_reward);
      d.add(static_cast<std::uint64_t>(e.steps));
      d.add(static_cast<std::uint64_t>(e.attacks_attempted));
      d.add(static_cast<std::uint64_t>(e.immediate_flips));
      d.add(e.mean_l2);
    }
    r.wall_s = wall;
    r.step_wall_s = wall;
    r.attempted = kEpisodes;
    r.digest = d.hex();
    return r;
  }

 private:
  attack::AttackPtr attack_;
  core::AttackSession session_;
};

/// The offline phase from an empty cache: train the DQN victim, collect
/// passive traces, run Algorithm 1 (m = 1) — the same Zoo calls the figures
/// use. A greedy rollout of the trained weights through the decorator then
/// checks the victim plays and times its decisions: the Zoo's training
/// loop has no seam for the decorator.
class Learn final : public Workload {
 public:
  static constexpr std::size_t kRolloutEpisodes = 16;
  explicit Learn(const Options& o)
      : root_(o.cache + "/learn"), replay_search_(o.replay_search) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    // The rollout runs on an agent allocated once, here, and given each
    // pass's trained weights: batch-1 forwards are sensitive to buffer
    // alignment, and a network allocated per pass put whole runs in a fast
    // or a slow mode at random.
    const env::EnvPtr probe = env::make_agent_environment(kGame, 0);
    rollout_agent_ = rl::make_agent(rl::Algorithm::kDqn, rl::obs_spec_of(*probe),
                                    probe->action_count(), 0);
  }

  PassResult pass(std::uint64_t seed) override {
    const std::string dir = root_ + "/" + std::to_string(seed);
    std::filesystem::remove_all(dir);
    core::ZooConfig zc;
    zc.cache_dir = dir;
    zc.scale = kLearnScale;
    zc.seed = seed;
    zc.verbose = false;
    PassResult r;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    core::Zoo zoo(zc);
    rl::Agent& victim = zoo.victim(kGame, rl::Algorithm::kDqn);
    const double train_s = seconds_since(t0);
    const auto t1 = Clock::now();
    const std::vector<env::Episode>& traces =
        zoo.episodes(kGame, rl::Algorithm::kDqn);
    const double observe_s = seconds_since(t1);
    const auto t2 = Clock::now();
    const core::ApproximatorInfo info =
        zoo.approximator(kGame, rl::Algorithm::kDqn, 1);
    const double approx_s = seconds_since(t2);
    r.wall_s = seconds_since(t0);
    r.cpu_s = cpu_seconds() - c0;
    if (replay_search_) r.extra["search_s"] = replay_search(zoo, traces, info);
    std::uint64_t observed = 0;
    for (const env::Episode& e : traces) observed += e.steps.size();

    rollout_agent_->reset_from(victim);
    TimedVictim timed(*rollout_agent_, 0.0);
    env::EnvPtr env = env::make_agent_environment(kGame, seed ^ 0x5EEDu);
    timed.take_marks();
    const auto t3 = Clock::now();
    const std::vector<env::Episode> rollout =
        rl::collect_episodes(timed, *env, kRolloutEpisodes, seed);
    r.step_wall_s = seconds_since(t3);
    const std::vector<double> marks = timed.take_marks();
    std::size_t at = 0;
    Digest d;
    for (const env::Episode& e : rollout) {
      r.steps += e.steps.size();
      for (std::size_t s = 1; s < e.steps.size(); ++s)
        r.frame_ms.push_back((marks[at + s] - marks[at + s - 1]) * 1e3);
      at += e.steps.size();
      d.add(e.total_reward());
      d.add(static_cast<std::uint64_t>(e.steps.size()));
    }
    if (at != marks.size())
      throw std::runtime_error("learn: unexpected victim query count");
    d.add(static_cast<std::uint64_t>(info.input_steps));
    d.add(info.accuracy);
    d.add(observed);
    d.add(file_digest(dir + "/mini_pong_dqn.ckpt"));
    d.add(file_digest(dir + "/seq2seq_mini_pong_dqn_m1.ckpt"));
    std::filesystem::remove_all(dir);

    r.attempted = 3;
    r.digest = d.hex();
    r.extra["train_s"] = train_s;
    r.extra["observe_s"] = observe_s;
    r.extra["approx_s"] = approx_s;
    r.extra["chosen_n"] = static_cast<double>(info.input_steps);
    r.extra["accuracy"] = info.accuracy;
    return r;
  }

 private:
  /// Algorithm 1's length search, re-run with the Zoo's own inputs outside
  /// the timed pass: Zoo::approximator does search and training in one
  /// call, so this is the only outside view of the split.
  static double replay_search(core::Zoo& zoo,
                              const std::vector<env::Episode>& traces,
                              const core::ApproximatorInfo& info) {
    const env::EnvPtr probe = env::make_environment(kGame, 1);
    const auto make_config = [&](std::size_t n) {
      return seq2seq::make_atari_seq2seq_config(probe->observation_shape(),
                                                probe->action_count(), n, 1);
    };
    const auto t0 = Clock::now();
    const seq2seq::LengthSearchResult search = seq2seq::search_input_length(
        traces, core::Zoo::length_candidates(kGame), make_config,
        zoo.seq2seq_settings(kGame),
        zoo.config().seed ^ std::hash<std::string>{}("mini_pong_dqn_m1"));
    const double seconds = seconds_since(t0);
    if (search.best_length != info.input_steps)
      throw std::runtime_error("learn: search replay chose another n");
    return seconds;
  }

  std::string root_;
  bool replay_search_;
  rl::AgentPtr rollout_agent_;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "craft_grid") return std::make_unique<CraftGrid>(o);
  if (o.workload == "bomb_grid") return std::make_unique<BombGrid>(o);
  if (o.workload == "live_attack") return std::make_unique<LiveAttack>(o);
  if (o.workload == "learn") return std::make_unique<Learn>(o);
  throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

void stamp() {
  Line("stamp")
      .str("kernel", nn::kernels::simd_kernel_name(
                         nn::kernels::active_simd_kernel()))
      .num("pool_threads",
           static_cast<double>(util::ThreadPool::global().size()))
      .num("eval_batch_width", static_cast<double>(attack::eval_batch_width()))
      .str("compiler", __VERSION__)
#ifdef NDEBUG
      .str("assertions", "off")
#else
      .str("assertions", "on")
#endif
      .emit();
}

void prepare(const Options& o) {
  stamp();
  core::Zoo zoo(pinned_config(o.cache));
  zoo.victim(kGame, rl::Algorithm::kDqn);
  zoo.victim(kGame, rl::Algorithm::kRainbow);
  Line line("prepared");
  for (std::size_t m : {std::size_t{1}, std::size_t{10}}) {
    const core::ApproximatorInfo info =
        zoo.approximator(kGame, rl::Algorithm::kDqn, m);
    line.num("n_m" + std::to_string(m), static_cast<double>(info.input_steps));
    line.num("acc_m" + std::to_string(m), info.accuracy);
  }
  line.emit();
}

int run(const Options& o, Clock::time_point start) {
  std::unique_ptr<Workload> w = make_workload(o);
  stamp();
  Line("setup")
      .num("setup_s", seconds_since(start))
      .num("load_s", w->load_s())
      .emit();
  if (o.mode == "setup") return 0;

  const auto t0 = Clock::now();
  if (TimedVictim* v = w->victim()) v->set_origin(t0);
  obs::Gauge& hosts = obs::MetricsRegistry::global().gauge("experiment.workers");
  std::size_t frames = 0;
  for (std::size_t p = 0;; ++p) {
    if (p > 0 && seconds_since(t0) >= o.seconds && frames >= kMinFrames) break;
    const std::uint64_t seed = mix_seed(o.seed, p);
    Line("begin").num("pass", static_cast<double>(p)).emit();
    hosts.set(0.0);
    const PassResult r = w->pass(seed);
    frames += r.frame_ms.size();
    Line line("pass");
    line.num("pass", static_cast<double>(p))
        .num("seed", static_cast<double>(seed))
        .num("wall_s", r.wall_s)
        .num("cpu_s", r.cpu_s)
        .num("hosts", hosts.value())
        .num("steps", static_cast<double>(r.steps))
        .num("step_wall_s", r.step_wall_s)
        .num("attempted", static_cast<double>(r.attempted))
        .str("digest", r.digest);
    for (const auto& [k, v] : r.extra) line.num(k, v);
    line.list("frame_ms", r.frame_ms).emit();
  }
  Line end("end");
  end.num("peak_rss_mb", peak_rss_mb());
  if (TimedVictim* v = w->victim()) {
    end.num("act_s", v->act_seconds())
        .num("act_calls", static_cast<double>(v->calls()))
        .num("act_rows", static_cast<double>(v->rows()));
  }
  end.emit();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  try {
    const Options o = parse(argc, argv);
    if (o.mode == "prepare") {
      prepare(o);
      return 0;
    }
    if (o.mode == "setup" || o.mode == "run") return run(o, start);
    throw std::invalid_argument("unknown mode '" + o.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
