#include "rlattack/core/parallel_episodes.hpp"

#include <algorithm>
#include <exception>

#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/rl/batch.hpp"
#include "rlattack/util/check.hpp"

namespace rlattack::core {

std::size_t episode_hosts(const std::vector<EpisodeJob>& jobs) {
  return std::min(attack::eval_batch_width(), jobs.size());
}

namespace {

EpisodeOutcome run_one_job(rl::Agent& victim, env::Game game,
                           seq2seq::Seq2SeqModel& model, const EpisodeJob& job,
                           attack::BatchedCraftPlanner& planner) {
  static obs::SpanStat& episode_span =
      obs::MetricsRegistry::global().span("phase.episode");
  obs::Span span(episode_span);
  obs::TraceScope trace("episode.job", "seed", static_cast<double>(job.seed));
  // Attacks hold only immutable configuration (steps, coefficients), so a
  // fresh default-configured instance per job matches a shared instance.
  attack::AttackPtr attacker = attack::make_attack(job.attack);
  AttackSession session(victim, game, model, *attacker, job.budget);
  return session.run_episode(job.policy, job.seed, &planner);
}

/// Number of Rng draws hashed per job when cross-checking stream purity in
/// checked builds. Enough to cover the seed-derived splits an episode
/// performs up front; cheap enough to recompute on every host.
constexpr std::size_t kCheckedRngDraws = 32;

std::vector<std::uint64_t> checked_stream_hashes(
    const std::vector<EpisodeJob>& jobs) {
  std::vector<std::uint64_t> hashes;
  if constexpr (util::kCheckedBuild) {
    hashes.reserve(jobs.size());
    for (const EpisodeJob& job : jobs)
      hashes.push_back(util::hash_rng_stream(job.seed, kCheckedRngDraws));
  }
  return hashes;
}

void checked_stream_purity(const EpisodeJob& job, std::size_t index,
                           const std::vector<std::uint64_t>& expected) {
  if constexpr (util::kCheckedBuild) {
    // Re-derive the job's RNG stream on the host that will run it: any
    // seed-plumbing or shared-state bug that makes the stream depend on
    // *which* host executes the job is caught before the episode
    // contaminates the result vector.
    RLATTACK_CHECK(
        util::hash_rng_stream(job.seed, kCheckedRngDraws) == expected[index],
        "run_episode_jobs: job " + std::to_string(index) +
            " RNG stream is not a pure function of its seed");
  }
}

}  // namespace

std::vector<EpisodeOutcome> run_episode_jobs(
    rl::Agent& victim, env::Game game, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs, std::size_t /*threads*/) {
  std::vector<EpisodeOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;
  const std::size_t hosts = episode_hosts(jobs);
  obs::MetricsRegistry::global()
      .gauge("experiment.workers")
      .set(static_cast<double>(hosts));
  obs::TraceScope trace("episodes.dispatch", "jobs",
                        static_cast<double>(jobs.size()), "hosts",
                        static_cast<double>(hosts));
  const std::vector<std::uint64_t> expected = checked_stream_hashes(jobs);

  // One planner bound to the ORIGINAL victim and model: its victim handler
  // fuses the in-flight episodes' policy queries into one act_batch
  // forward, and their approximator queries batch through the same
  // rendezvous. All victim and model access happens inside the flush, on
  // this thread.
  attack::BatchedCraftPlanner planner(model);
  planner.set_victim_handler(
      [&victim](
          std::span<attack::BatchedCraftPlanner::EvalProbe* const> probes) {
        std::vector<const nn::Tensor*> rows(probes.size());
        for (std::size_t r = 0; r < probes.size(); ++r)
          rows[r] = probes[r]->observation;
        const std::vector<std::size_t> actions = victim.act_batch(
            rl::batch_observations(rows), /*explore=*/false);
        for (std::size_t r = 0; r < probes.size(); ++r)
          probes[r]->action = actions[r];
      });

  // Each host is a fiber of the planner's rendezvous and pulls the next job
  // when its episode ends, because episode lengths vary widely. A job that
  // throws ends its host and stops every host from pulling further jobs;
  // the episodes still in flight run to their end.
  std::size_t next = 0;
  std::size_t completed = 0;
  bool failed = false;
  std::vector<std::exception_ptr> errors(jobs.size());
  planner.run(hosts, [&](std::size_t /*host*/) {
    while (!failed && next < jobs.size()) {
      const std::size_t i = next++;
      try {
        checked_stream_purity(jobs[i], i, expected);
        outcomes[i] = run_one_job(victim, game, model, jobs[i], planner);
        ++completed;
      } catch (...) {
        errors[i] = std::current_exception();
        failed = true;
      }
    }
  });
  // The error of the lowest failing job index, ahead of the hole check.
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(completed == jobs.size(),
                   "run_episode_jobs: " + std::to_string(completed) + " of " +
                       std::to_string(jobs.size()) +
                       " jobs completed — outcome vector has holes");
  }
  return outcomes;
}

}  // namespace rlattack::core
