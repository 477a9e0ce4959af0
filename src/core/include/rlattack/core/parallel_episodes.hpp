// Episode driver for the experiment grids.
//
// The paper's evaluation grids (Figures 4-9) are embarrassingly parallel:
// every episode is a pure function of (victim weights, approximator
// weights, attack kind, budget, policy, episode seed) because
// AttackSession::run_episode reseeds the environment, the rollout FIFO and
// the attack RNG from the episode seed alone. This module flattens a grid
// into a job list, runs the jobs as interleaved fibers through one
// rendezvous that batches their victim and approximator queries, and
// returns outcomes indexed by job position so callers can reduce in run
// order — bit-identical results at any thread count and any rendezvous
// interleaving (the same determinism contract the GEMM kernels
// established).
#pragma once

#include "rlattack/core/pipeline.hpp"

namespace rlattack::core {

/// One self-contained unit of episode work.
struct EpisodeJob {
  attack::Kind attack = attack::Kind::kGaussian;
  attack::Budget budget;
  AttackPolicy policy;
  std::uint64_t seed = 0;
};

/// Wall-clock record of one driver invocation, surfaced in the bench CSVs
/// and BENCH_experiments.json.
struct ExperimentTiming {
  double wall_seconds = 0.0;
  std::size_t hosts = 0;     ///< episode hosts (episode_hosts)
  std::size_t episodes = 0;  ///< total episodes executed
};

/// Episode hosts (fibers) run_episode_jobs runs for this job list:
/// min(attack::eval_batch_width(), jobs.size()).
std::size_t episode_hosts(const std::vector<EpisodeJob>& jobs);

/// Runs every job against (victim, model) for `game`, returning outcomes
/// indexed by job position.
///
/// The jobs run on the calling thread: episode_hosts(jobs) fibers of ONE
/// attack::BatchedCraftPlanner, bound to the ORIGINAL victim and model —
/// no clones — pull jobs in order as their episodes end. Each episode
/// routes every query through the planner's rendezvous: per-step victim
/// policy queries fuse into shared act_batch forwards through its victim
/// handler, and approximator queries into shared batched tail passes. A
/// one-job list runs the same way with one fiber. Outcomes land at their
/// job index and every episode is a pure function of its seed, so the
/// result vector is bit-identical to running each job alone through
/// AttackSession::run_episode with no planner.
///
/// Concurrency: the victim and the model are used on the calling thread
/// only; concurrent calls must not share a victim or a model.
///
/// Failures: an exception in an episode — thrown in its fiber or inside a
/// flush that served it — ends that job, and no host starts another job.
/// The episodes still in flight run to their end; then the call rethrows
/// the exception of the lowest failing job index.
///
/// `threads` is ignored; it remains so that five-argument callers still
/// compile.
std::vector<EpisodeOutcome> run_episode_jobs(
    rl::Agent& victim, env::Game game, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs, std::size_t threads = 0);

}  // namespace rlattack::core
