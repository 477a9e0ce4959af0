// End-to-end attacked-episode execution (Figure 2): the victim plays its
// game while the attacker watches through the rollout FIFO and injects
// perturbations into the observation channel.
//
// Everything is deterministic given the episode seed — victim greedy
// policies, environment dynamics and attack randomness all derive from
// explicit seeds — so a clean and an attacked run of the same seed form an
// exact counterfactual pair. The time-bomb experiment exploits this to
// measure whether a single perturbation at step t changed the action at
// step t + d.
#pragma once

#include "rlattack/attack/attack.hpp"
#include "rlattack/core/rollout_fifo.hpp"
#include "rlattack/env/factory.hpp"
#include "rlattack/rl/agent.hpp"

namespace rlattack::core {

/// When and how to perturb within an episode.
struct AttackPolicy {
  enum class Mode {
    kNone,       ///< clean play (baseline / counterfactual run)
    kEveryStep,  ///< perturb every step once the FIFO is full (Figs 4-6)
    kSingleStep  ///< perturb exactly once, at `trigger_step` (time-bomb)
  };
  Mode mode = Mode::kNone;
  std::size_t trigger_step = 0;  ///< kSingleStep: first eligible step index
  /// kEveryStep: attack every `stride`-th eligible step (1 = every step).
  /// Lin et al.'s observation — attacking a fraction of steps degrades
  /// reward almost as much — is reproduced by sweeping this.
  std::size_t stride = 1;

  attack::Goal::Mode goal_mode = attack::Goal::Mode::kUntargeted;
  /// Output-sequence position to attack. Ignored when `random_position`.
  std::size_t position = 0;
  /// Action-sequence attack (Figs 5-6): flip a *random* future action in
  /// the predicted sequence each step.
  bool random_position = false;
  /// kTargeted with `runner_up_target`: aim at the second-most-likely
  /// predicted action at the position (the easiest flip); otherwise
  /// `target_action` is used verbatim.
  bool runner_up_target = true;
  std::size_t target_action = 0;
  /// Record every frame as delivered to the victim (clean or perturbed) in
  /// EpisodeOutcome::delivered_frames — used by the detection experiments.
  bool record_frames = false;
};

/// Everything measured during one episode run.
struct EpisodeOutcome {
  double total_reward = 0.0;
  std::size_t steps = 0;
  std::size_t attacks_attempted = 0;
  /// Steps where the perturbed observation changed the victim's action
  /// relative to the clean observation at that same step (the
  /// transferability numerator of Figure 7).
  std::size_t immediate_flips = 0;
  /// Victim action taken at every step (for counterfactual comparison).
  std::vector<std::size_t> actions;
  /// Mean L2 / Linf norms of the applied perturbations.
  double mean_l2 = 0.0;
  double mean_linf = 0.0;
  /// Step index at which the single-step attack fired (kSingleStep only);
  /// SIZE_MAX if it never fired.
  std::size_t fired_step = static_cast<std::size_t>(-1);
  /// Frames as delivered to the victim (only when policy.record_frames).
  std::vector<nn::Tensor> delivered_frames;
};

/// Binds one victim + approximator + attack into a runnable session.
class AttackSession {
 public:
  /// `model` must have been trained against this game's action space and
  /// raw frame shape. The victim consumes agent-side observations
  /// (frame-stacked for image games); the session reproduces that stacking
  /// internally so perturbations touch only the newest frame.
  AttackSession(rl::Agent& victim, env::Game game,
                seq2seq::Seq2SeqModel& model, attack::Attack& attack,
                attack::Budget budget);

  /// Runs one episode under `policy` with full determinism from
  /// `episode_seed`. With no planner, every query runs on the calling
  /// thread: the victim through act(), the approximator through the craft
  /// context's one-row probes (the CLI and one-attacker path). With a
  /// planner, the call must run in a fiber of the planner's run(): the
  /// session routes every victim query (an EvalProbe; the planner must
  /// have a victim handler) and every approximator probe through its
  /// rendezvous, so concurrent sessions share batched forwards. The
  /// outcome is bit-identical either way. An exception — from the attack,
  /// the checked-build trust boundary or a failed flush — propagates out.
  EpisodeOutcome run_episode(const AttackPolicy& policy,
                             std::uint64_t episode_seed,
                             attack::BatchedCraftPlanner* planner = nullptr);

  /// The model's output-sequence length m (bounds attackable positions).
  std::size_t output_steps() const;

 private:
  rl::Agent& victim_;
  env::Game game_;
  seq2seq::Seq2SeqModel& model_;
  attack::Attack& attack_;
  attack::Budget budget_;
  env::EnvPtr raw_env_;
  std::vector<std::size_t> agent_obs_shape_;
  std::size_t frame_size_;
  std::size_t stack_depth_;
};

}  // namespace rlattack::core
