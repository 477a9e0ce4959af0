#include "rlattack/core/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "rlattack/attack/batch_planner.hpp"

#include "rlattack/core/detector.hpp"
#include "rlattack/obs/forensics.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/check.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::core {

namespace {

// Per-phase pipeline telemetry. Realised-norm histogram bounds cover the
// epsilon range exercised by the Fig 4-6 sweeps (0.05 .. 8).
struct PipelineMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& steps = reg.counter("pipeline.steps");
  obs::Counter& episodes = reg.counter("pipeline.episodes");
  obs::Counter& attacks = reg.counter("pipeline.attacks");
  obs::SpanStat& perturb = reg.span("phase.perturb");
  obs::SpanStat& victim_step = reg.span("phase.victim_step");
  obs::SpanStat& env_step = reg.span("phase.env_step");
  obs::SpanStat& approx_inference = reg.span("phase.approx_inference");
  obs::Histogram& realised_l2 = reg.histogram(
      "attack.realised_l2", {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
  obs::Histogram& realised_linf = reg.histogram(
      "attack.realised_linf", {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0});
};
PipelineMetrics& pipeline_metrics() {
  static PipelineMetrics metrics;
  return metrics;
}

/// Stable identifier of one episode *configuration*: the forensics JSONL is
/// sorted by it, so the export order is independent of which worker finished
/// first. Seed is folded in too — two episodes of the same sweep row differ
/// only by seed.
std::uint64_t episode_forensics_key(const AttackPolicy& policy,
                                    const attack::Budget& budget,
                                    const std::string& attack_name,
                                    std::uint64_t seed) {
  using obs::forensics_key_mix;
  std::uint64_t k = obs::forensics_key_begin();
  k = forensics_key_mix(k, seed);
  k = forensics_key_mix(k, static_cast<std::uint64_t>(policy.mode));
  k = forensics_key_mix(k, policy.trigger_step);
  k = forensics_key_mix(k, policy.stride);
  k = forensics_key_mix(k, static_cast<std::uint64_t>(policy.goal_mode));
  k = forensics_key_mix(k, policy.position);
  k = forensics_key_mix(k, policy.random_position ? 1 : 0);
  k = forensics_key_mix(k, policy.runner_up_target ? 1 : 0);
  k = forensics_key_mix(k, policy.target_action);
  k = forensics_key_mix(k, static_cast<std::uint64_t>(budget.norm));
  k = forensics_key_mix(k, std::bit_cast<std::uint32_t>(budget.epsilon));
  for (const char c : attack_name)
    k = forensics_key_mix(k, static_cast<unsigned char>(c));
  return k;
}

}  // namespace

AttackSession::AttackSession(rl::Agent& victim, env::Game game,
                             seq2seq::Seq2SeqModel& model,
                             attack::Attack& attack, attack::Budget budget)
    : victim_(victim),
      game_(game),
      model_(model),
      attack_(attack),
      budget_(budget),
      raw_env_(env::make_environment(game, /*seed=*/1)),
      stack_depth_(env::agent_frame_stack(game)) {
  frame_size_ = raw_env_->observation_size();
  if (model_.config().frame_size() != frame_size_)
    throw std::logic_error(
        "AttackSession: model frame size does not match the game");
  if (model_.config().actions != raw_env_->action_count())
    throw std::logic_error(
        "AttackSession: model action count does not match the game");
  // Agent-side observation shape (stacked along channel 0 for images).
  agent_obs_shape_ = raw_env_->observation_shape();
  agent_obs_shape_[0] *= stack_depth_;
}

std::size_t AttackSession::output_steps() const {
  return model_.config().output_steps;
}

EpisodeOutcome AttackSession::run_episode(
    const AttackPolicy& policy, std::uint64_t episode_seed,
    attack::BatchedCraftPlanner* planner) {
  PipelineMetrics& metrics = pipeline_metrics();
  metrics.episodes.add();
  obs::TraceScope episode_trace("episode.run", "seed",
                                static_cast<double>(episode_seed));
  const bool forensics = obs::forensics_enabled();
  // Victim policy query: serial single-row act(), or one EvalProbe through
  // the planner's rendezvous, where concurrent episodes' rows fuse into
  // shared forwards. Takes the observation by value — the row must outlive
  // the parked submit, and the serial path's act() copies it into the
  // agent's scratch row anyway.
  const auto victim_act = [&](nn::Tensor observation) -> std::size_t {
    if (planner == nullptr) return victim_.act(observation, false);
    attack::BatchedCraftPlanner::EvalProbe probe;
    probe.observation = &observation;
    planner->submit(probe);
    return probe.action;
  };
  const std::uint64_t forensics_key =
      forensics ? episode_forensics_key(policy, budget_, attack_.name(),
                                        episode_seed)
                : 0;
  // Detection score: built fresh per episode from the plain-number config
  // the obs layer holds (obs cannot depend on core::StatefulDetector).
  std::optional<StatefulDetector> detector;
  if (forensics) {
    const obs::ForensicsDetector det_cfg = obs::forensics_detector();
    if (det_cfg.active) {
      StatefulDetector::Config cfg;
      cfg.window = static_cast<std::size_t>(std::max(det_cfg.window, 1));
      cfg.alarm_flags =
          static_cast<std::size_t>(std::max(det_cfg.alarm_flags, 1));
      cfg.z_threshold = det_cfg.z_threshold;
      detector.emplace(cfg);
      detector->calibrate(det_cfg.mean, det_cfg.stddev);
    }
  }
  raw_env_->seed(episode_seed);
  util::Rng rng(episode_seed ^ 0x5bd1e995u);
  RolloutFifo fifo(model_.config().input_steps, frame_size_,
                   raw_env_->action_count());
  FrameAccumulator accumulator(stack_depth_, frame_size_);
  const env::ObservationBounds bounds = raw_env_->observation_bounds();

  EpisodeOutcome outcome;
  util::RunningStats l2_stats, linf_stats;
  nn::Tensor frame = raw_env_->reset();
  bool done = false;
  bool single_fired = false;

  while (!done) {
    nn::Tensor delivered = frame;
    const bool eligible = fifo.full();
    bool attack_now = false;
    switch (policy.mode) {
      case AttackPolicy::Mode::kNone: break;
      case AttackPolicy::Mode::kEveryStep:
        attack_now = eligible && outcome.steps % std::max<std::size_t>(
                                     1, policy.stride) == 0;
        break;
      case AttackPolicy::Mode::kSingleStep:
        attack_now = eligible && !single_fired &&
                     outcome.steps >= policy.trigger_step;
        break;
    }

    std::size_t clean_action = 0;
    obs::ForensicsStep rec;
    std::vector<std::size_t> predicted_vec;
    // One craft context per step that needs the model: the history encoding
    // built for the forensics prediction / runner-up target selection below
    // is reused by every iteration of the attack itself. With a planner the
    // context crafts through it, so the encoding and every tail query batch
    // across sessions. With forensics off this constructs on attacked steps
    // only.
    std::optional<attack::CraftInputs> inputs_storage;
    std::optional<attack::CraftContext> ctx_storage;
    if (attack_now || (forensics && eligible)) {
      inputs_storage.emplace(
          fifo.crafting_inputs(frame.reshaped({frame_size_})));
      if (planner != nullptr)
        ctx_storage.emplace(*planner, *inputs_storage);
      else
        ctx_storage.emplace(model_, *inputs_storage);
    }
    if (forensics && eligible) {
      // Prediction agreement: what does the approximator expect the victim
      // to do from the *clean* history? Read-only forward query — it never
      // touches the episode RNG or environment.
      obs::Span span(metrics.approx_inference);
      predicted_vec = ctx_storage->predict_actions();
    }
    if (attack_now) {
      const attack::CraftInputs& inputs = *inputs_storage;
      attack::CraftContext& ctx = *ctx_storage;
      attack::Goal goal;
      goal.mode = policy.goal_mode;
      const std::size_t m = model_.config().output_steps;
      goal.position = policy.random_position
                          ? rng.uniform_int(m)
                          : std::min(policy.position, m - 1);
      if (goal.mode == attack::Goal::Mode::kTargeted) {
        if (policy.runner_up_target) {
          // Aim at the runner-up action of the prediction at the position:
          // the easiest-to-reach wrong action.
          obs::TraceScope trace("phase.approx_inference");
          obs::Span span(metrics.approx_inference);
          const std::vector<float> row =
              ctx.position_logits(goal.position, inputs.current_obs);
          const std::size_t a = row.size();
          std::size_t best = 0, second = (a > 1) ? 1 : 0;
          if (row[second] > row[best]) std::swap(best, second);
          for (std::size_t i = 2; i < a; ++i) {
            if (row[i] > row[best]) {
              second = best;
              best = i;
            } else if (row[i] > row[second]) {
              second = i;
            }
          }
          goal.target_action = second;
        } else {
          goal.target_action = policy.target_action;
        }
      }
      nn::Tensor perturbed_flat = [&] {
        obs::TraceScope trace("phase.perturb", "position",
                              static_cast<double>(goal.position));
        obs::Span span(metrics.perturb);
        return attack_.perturb(ctx, goal, budget_, bounds, rng);
      }();
      metrics.attacks.add();
      if constexpr (util::kCheckedBuild) {
        // Trust boundary for *any* Attack implementation (including ones
        // built outside this repo): the sample delivered to the victim must
        // actually satisfy the declared budget and clip range.
        attack::check_perturbation(inputs.current_obs, perturbed_flat,
                                   budget_, bounds,
                                   attack_.name().c_str());
      }
      // Norm accounting on the realised (clamped) perturbation.
      nn::Tensor delta = perturbed_flat;
      delta -= inputs.current_obs;
      const double l2 = util::l2_norm(delta.data());
      const double linf = util::linf_norm(delta.data());
      l2_stats.add(l2);
      linf_stats.add(linf);
      metrics.realised_l2.record(l2);
      metrics.realised_linf.record(linf);
      rec.l2 = l2;
      rec.linf = linf;
      if (forensics) {
        // Attack-loss margin at the attacked position, evaluated on the
        // delivered sample: positive means the model-level goal is met
        // (targeted: target beats every other action; untargeted: some
        // other action beats the clean prediction).
        const std::vector<float> post =
            ctx.position_logits(goal.position, perturbed_flat);
        const auto margin_vs = [&](std::size_t pivot) {
          double best_other = -HUGE_VAL;
          for (std::size_t i = 0; i < post.size(); ++i)
            if (i != pivot) best_other = std::max(best_other, double(post[i]));
          return post.size() > 1 ? best_other : double(post[pivot]);
        };
        if (goal.mode == attack::Goal::Mode::kTargeted)
          rec.loss = double(post[goal.target_action]) -
                     margin_vs(goal.target_action);
        else
          rec.loss = margin_vs(predicted_vec[goal.position]) -
                     double(post[predicted_vec[goal.position]]);
        rec.has_loss = true;
      }
      // Victim's counterfactual action on the clean frame this step.
      clean_action =
          victim_act(accumulator.peek_with(frame).reshaped(agent_obs_shape_));
      delivered = perturbed_flat.reshaped(frame.shape());
      ++outcome.attacks_attempted;
      if (policy.mode == AttackPolicy::Mode::kSingleStep) {
        single_fired = true;
        outcome.fired_step = outcome.steps;
      }
    }

    if (policy.record_frames) outcome.delivered_frames.push_back(delivered);
    nn::Tensor stacked = accumulator.push(delivered);
    const std::size_t action = [&] {
      obs::TraceScope trace("phase.victim_step");
      obs::Span span(metrics.victim_step);
      return victim_act(stacked.reshaped(agent_obs_shape_));
    }();
    if (attack_now && action != clean_action) ++outcome.immediate_flips;

    fifo.push(delivered.reshaped({frame_size_}), action);
    outcome.actions.push_back(action);

    if (forensics) {
      rec.episode_key = forensics_key;
      rec.seed = episode_seed;
      rec.step = static_cast<std::uint32_t>(outcome.steps);
      rec.eligible = eligible;
      rec.attacked = attack_now;
      rec.action = static_cast<std::int32_t>(action);
      if (!predicted_vec.empty()) {
        rec.predicted = static_cast<std::int32_t>(predicted_vec[0]);
        rec.agree = predicted_vec[0] == action ? 1 : 0;
      }
      // Counterfactual clean-action query on attacked steps is the second
      // victim evaluation the attack spends.
      rec.victim_queries = attack_now ? 2 : 1;
      if (ctx_storage.has_value()) {
        rec.model_forward =
            static_cast<std::uint32_t>(ctx_storage->queries_forward());
        rec.model_gradient =
            static_cast<std::uint32_t>(ctx_storage->queries_gradient());
      }
      if (detector.has_value()) {
        rec.det_active = true;
        rec.det_flag = detector->observe(delivered);
        rec.det_score = detector->last_z();
      }
      obs::forensics_record(rec);
    }

    env::StepResult sr = [&] {
      obs::TraceScope trace("phase.env_step");
      obs::Span span(metrics.env_step);
      return raw_env_->step(action);
    }();
    outcome.total_reward += sr.reward;
    metrics.steps.add();
    ++outcome.steps;
    done = sr.done;
    frame = std::move(sr.observation);
  }

  outcome.mean_l2 = l2_stats.count() > 0 ? l2_stats.mean() : 0.0;
  outcome.mean_linf = linf_stats.count() > 0 ? linf_stats.mean() : 0.0;
  return outcome;
}

}  // namespace rlattack::core
