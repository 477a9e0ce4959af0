#include "rlattack/attack/attack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/nn/loss.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/util/check.hpp"
#include "rlattack/util/stats.hpp"

namespace rlattack::attack {

namespace {

// Pre-registered telemetry handles. "Queries" count victim/approximator model
// evaluations — the blackbox cost axis of the paper — split into pure
// forwards and gradient (forward+backward) queries. Clip counters record how
// often projection actually modified the candidate.
struct AttackMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& queries_forward = reg.counter("attack.queries.forward");
  obs::Counter& queries_gradient = reg.counter("attack.queries.gradient");
  obs::Counter& craft_gaussian = reg.counter("attack.craft.gaussian");
  obs::Counter& craft_fgsm = reg.counter("attack.craft.fgsm");
  obs::Counter& craft_pgd = reg.counter("attack.craft.pgd");
  obs::Counter& craft_cw = reg.counter("attack.craft.cw");
  obs::Counter& craft_jsma = reg.counter("attack.craft.jsma");
  obs::Counter& pgd_iterations = reg.counter("attack.pgd.iterations");
  obs::Counter& cw_iterations = reg.counter("attack.cw.iterations");
  obs::Counter& jsma_rounds = reg.counter("attack.jsma.rounds");
  obs::Counter& clip_budget = reg.counter("attack.clip.budget");
  obs::Counter& clip_bounds = reg.counter("attack.clip.bounds");
  /// Model queries answered from an already-built history encoding — the
  /// work the craft cache saved (each one skipped both n-step history
  /// stacks).
  obs::Counter& encode_reuse = reg.counter("attack.encode.reuse");
};
AttackMetrics g_metrics;

/// Argmax of every output step of [1, m, A] logits.
std::vector<std::size_t> argmax_per_step(const nn::Tensor& logits) {
  const std::size_t m = logits.dim(1), a = logits.dim(2);
  std::vector<std::size_t> actions(m);
  for (std::size_t j = 0; j < m; ++j) {
    auto row = logits.data().subspan(j * a, a);
    actions[j] = static_cast<std::size_t>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return actions;
}

/// Scales `delta` so its norm equals `budget.epsilon` (no-op on a zero
/// vector).
void scale_to_budget(nn::Tensor& delta, const Budget& budget) {
  if (budget.norm == Budget::Norm::kL2) {
    const double norm = util::l2_norm(delta.data());
    if (norm <= 0.0) return;
    delta *= static_cast<float>(budget.epsilon / norm);
  } else {
    const double norm = util::linf_norm(delta.data());
    if (norm <= 0.0) return;
    delta *= static_cast<float>(budget.epsilon / norm);
  }
}

/// Projects `candidate` back into the budget ball around `origin`, then
/// clamps to the observation bounds.
void project(nn::Tensor& candidate, const nn::Tensor& origin,
             const Budget& budget, env::ObservationBounds bounds) {
  bool budget_clipped = false;
  if (budget.norm == Budget::Norm::kLinf) {
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      const float clamped = std::clamp(
          candidate[i], origin[i] - budget.epsilon, origin[i] + budget.epsilon);
      budget_clipped |= clamped != candidate[i];
      candidate[i] = clamped;
    }
  } else {
    nn::Tensor delta = candidate;
    delta -= origin;
    const double norm = util::l2_norm(delta.data());
    if (norm > budget.epsilon && norm > 0.0) {
      budget_clipped = true;
      delta *= static_cast<float>(budget.epsilon / norm);
      candidate = origin;
      candidate += delta;
    }
  }
  bool bounds_clipped = false;
  for (float& x : candidate.data()) {
    const float clamped = std::clamp(x, bounds.low, bounds.high);
    bounds_clipped |= clamped != x;
    x = clamped;
  }
  if (budget_clipped) g_metrics.clip_budget.add();
  if (bounds_clipped) g_metrics.clip_bounds.add();
}

/// Resolves the loss anchor once, on the *clean* input: the action whose
/// cross-entropy the attack ascends (untargeted, away from the clean
/// prediction) or descends (targeted). Anchoring on the clean prediction —
/// rather than re-evaluating per PGD step — keeps the iterate from
/// oscillating back once the decision flips.
struct Anchor {
  std::size_t action = 0;
  float sign = 1.0f;  ///< +1 ascend (untargeted), -1 descend (targeted)
};

/// Signed gradient step direction at `current_obs` for a fixed anchor.
nn::Tensor crafting_direction(CraftContext& ctx, const Goal& goal,
                              const Anchor& anchor,
                              const nn::Tensor& current_obs) {
  nn::Tensor grad =
      ctx.current_obs_gradient(goal.position, anchor.action, current_obs);
  grad *= anchor.sign;
  return grad;
}

/// Anchor plus the first crafting direction, both on the clean input. The
/// untargeted anchor is the argmax of the very forward pass the first
/// gradient needs, so the fused CraftContext query resolves both in one
/// rendezvous round; the targeted anchor is free and only the gradient is
/// asked for.
struct AnchoredDirection {
  Anchor anchor;
  nn::Tensor grad;  ///< already sign-adjusted
};

AnchoredDirection resolve_anchor_and_direction(CraftContext& ctx,
                                               const Goal& goal,
                                               const nn::Tensor& current_obs) {
  AnchoredDirection out;
  if (goal.mode == Goal::Mode::kTargeted) {
    out.anchor.action = goal.target_action;
    out.anchor.sign = -1.0f;
    out.grad = crafting_direction(ctx, goal, out.anchor, current_obs);
    return out;
  }
  auto [predicted, grad] = ctx.anchored_gradient(goal.position, current_obs);
  out.anchor.action = predicted[goal.position];
  out.anchor.sign = 1.0f;  // ascend; the raw gradient already points uphill
  out.grad = std::move(grad);
  return out;
}

}  // namespace

CraftContext::CraftContext(seq2seq::Seq2SeqModel& model,
                           const CraftInputs& inputs)
    : model_(model), inputs_(inputs) {}

CraftContext::CraftContext(BatchedCraftPlanner& planner,
                           const CraftInputs& inputs)
    : model_(planner.model()), inputs_(inputs), planner_(&planner) {}

void CraftContext::ask(CraftProbe& probe) {
  probe.inputs = &inputs_;
  probe.encoding = &encoding_;
  probe.encoded = &encoded_;
  if (encoded_) g_metrics.encode_reuse.add();
  if (planner_ != nullptr) {
    planner_->submit(probe);
  } else {
    CraftProbe* const one = &probe;
    resolve_craft_probes(model_, {&one, 1});
  }
}

std::vector<std::size_t> CraftContext::predict_actions() {
  ++q_forward_;
  g_metrics.queries_forward.add();
  CraftProbe probe;
  probe.current_obs = &inputs_.current_obs;
  ask(probe);
  return argmax_per_step(probe.logits);
}

std::vector<float> CraftContext::position_logits(
    std::size_t position, const nn::Tensor& current_obs) {
  ++q_forward_;
  g_metrics.queries_forward.add();
  if (position >= model_.config().output_steps)
    throw std::logic_error("position_logits: position out of range");
  CraftProbe probe;
  probe.current_obs = &current_obs;
  ask(probe);
  const std::size_t a = probe.logits.dim(2);
  auto row = probe.logits.data().subspan(position * a, a);
  return {row.begin(), row.end()};
}

nn::Tensor CraftContext::current_obs_gradient(std::size_t position,
                                              std::size_t action,
                                              const nn::Tensor& current_obs) {
  ++q_gradient_;
  g_metrics.queries_gradient.add();
  const seq2seq::Seq2SeqConfig& cfg = model_.config();
  if (position >= cfg.output_steps || action >= cfg.actions)
    throw std::logic_error("current_obs_gradient: index out of range");
  CraftProbe probe;
  probe.kind = CraftProbe::Kind::kCeGradient;
  probe.current_obs = &current_obs;
  probe.position = position;
  probe.action_a = action;
  ask(probe);
  return std::move(probe.grad);
}

std::pair<std::vector<std::size_t>, nn::Tensor>
CraftContext::anchored_gradient(std::size_t position,
                                const nn::Tensor& current_obs) {
  if (position >= model_.config().output_steps)
    throw std::logic_error("Attack: goal position beyond output sequence");
  ++q_forward_;
  ++q_gradient_;
  g_metrics.queries_forward.add();
  g_metrics.queries_gradient.add();
  // Mirror the unfused accounting: the gradient half always reuses the
  // encoding the forward half ensured (ask() counts one more reuse when the
  // context was already encoded before the call).
  g_metrics.encode_reuse.add();
  CraftProbe probe;
  probe.kind = CraftProbe::Kind::kAnchorGradient;
  probe.current_obs = &current_obs;
  probe.position = position;
  ask(probe);
  return {argmax_per_step(probe.logits), std::move(probe.grad)};
}

nn::Tensor CraftContext::logit_diff_gradient(std::size_t position,
                                             std::size_t a, std::size_t b,
                                             const nn::Tensor& current_obs) {
  ++q_gradient_;
  g_metrics.queries_gradient.add();
  const seq2seq::Seq2SeqConfig& cfg = model_.config();
  if (position >= cfg.output_steps || a >= cfg.actions || b >= cfg.actions)
    throw std::logic_error("logit_diff_gradient: index out of range");
  CraftProbe probe;
  probe.kind = CraftProbe::Kind::kDiffGradient;
  probe.current_obs = &current_obs;
  probe.position = position;
  probe.action_a = a;
  probe.action_b = b;
  ask(probe);
  return std::move(probe.grad);
}

nn::Tensor Attack::perturb(seq2seq::Seq2SeqModel& model,
                           const CraftInputs& inputs, const Goal& goal,
                           const Budget& budget, env::ObservationBounds bounds,
                           util::Rng& rng) {
  CraftContext ctx(model, inputs);
  return perturb(ctx, goal, budget, bounds, rng);
}

// The budget is measured against the bounds-clamped original because
// clamping is 1-Lipschitz: every attack that satisfied its budget pre-clamp
// provably satisfies this check, so a trip always means a genuinely broken
// attack implementation — never a false positive from the clip step.
void check_perturbation(const nn::Tensor& original,
                        const nn::Tensor& perturbed, const Budget& budget,
                        env::ObservationBounds bounds, const char* attack) {
  const std::string who(attack);
  RLATTACK_CHECK(perturbed.same_shape(original),
                 who + ": perturbed shape " + perturbed.shape_string() +
                     " != original shape " + original.shape_string());
  RLATTACK_CHECK(util::all_finite(perturbed.data()),
                 who + ": non-finite perturbed observation");
  constexpr float kBoundsTol = 1e-6f;
  double norm_sq = 0.0;
  double linf = 0.0;
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    const float x = perturbed[i];
    RLATTACK_CHECK(x >= bounds.low - kBoundsTol && x <= bounds.high + kBoundsTol,
                   who + ": element " + std::to_string(i) + " = " +
                       std::to_string(x) + " escapes observation bounds [" +
                       std::to_string(bounds.low) + ", " +
                       std::to_string(bounds.high) + "]");
    const double d =
        static_cast<double>(x) -
        static_cast<double>(std::clamp(original[i], bounds.low, bounds.high));
    norm_sq += d * d;
    linf = std::max(linf, std::abs(d));
  }
  const double norm =
      budget.norm == Budget::Norm::kL2 ? std::sqrt(norm_sq) : linf;
  const double allowed =
      static_cast<double>(budget.epsilon) * (1.0 + 1e-4) + 1e-6;
  RLATTACK_CHECK(
      norm <= allowed,
      who + ": perturbation norm " + std::to_string(norm) +
          " exceeds declared budget epsilon " + std::to_string(budget.epsilon) +
          (budget.norm == Budget::Norm::kL2 ? " (L2)" : " (Linf)"));
}

std::vector<std::size_t> predict_actions(seq2seq::Seq2SeqModel& model,
                                         const CraftInputs& inputs) {
  g_metrics.queries_forward.add();
  return argmax_per_step(model.forward(inputs.action_history,
                                       inputs.obs_history, inputs.current_obs));
}

nn::Tensor current_obs_gradient(seq2seq::Seq2SeqModel& model,
                                const CraftInputs& inputs,
                                std::size_t position, std::size_t action,
                                const nn::Tensor& current_obs) {
  g_metrics.queries_gradient.add();
  nn::Tensor logits = model.forward(inputs.action_history, inputs.obs_history,
                                    current_obs);
  const std::size_t m = logits.dim(1);
  if (position >= m)
    throw std::logic_error("current_obs_gradient: position out of range");
  // CE on the attacked position only; other rows get zero weight.
  std::vector<std::size_t> targets(m, 0);
  std::vector<float> weights(m, 0.0f);
  targets[position] = action;
  weights[position] = 1.0f;
  nn::LossResult loss = nn::softmax_cross_entropy(logits, targets, weights);
  model.zero_grad();  // parameter grads are irrelevant here; keep them clean
  auto grads = model.backward(loss.grad);
  model.zero_grad();
  return std::move(grads.current_obs);
}

nn::Tensor GaussianAttack::perturb(CraftContext& ctx, const Goal& /*goal*/,
                                   const Budget& budget,
                                   env::ObservationBounds bounds,
                                   util::Rng& rng) {
  g_metrics.craft_gaussian.add();
  // Model-free: never queries ctx, so the lazy history encoding is not built.
  const CraftInputs& inputs = ctx.inputs();
  nn::Tensor delta(inputs.current_obs.shape());
  for (float& x : delta.data()) x = rng.normal_f(0.0f, 1.0f);
  scale_to_budget(delta, budget);
  nn::Tensor out = inputs.current_obs;
  out += delta;
  for (float& x : out.data()) x = std::clamp(x, bounds.low, bounds.high);
  if constexpr (util::kCheckedBuild)
    check_perturbation(inputs.current_obs, out, budget, bounds, "gaussian");
  return out;
}

nn::Tensor FgsmAttack::perturb(CraftContext& ctx, const Goal& goal,
                               const Budget& budget,
                               env::ObservationBounds bounds,
                               util::Rng& /*rng*/) {
  g_metrics.craft_fgsm.add();
  const CraftInputs& inputs = ctx.inputs();
  nn::Tensor grad =
      resolve_anchor_and_direction(ctx, goal, inputs.current_obs).grad;
  nn::Tensor delta(grad.shape());
  if (budget.norm == Budget::Norm::kLinf) {
    // Classic FGSM: epsilon * sign(grad).
    for (std::size_t i = 0; i < grad.size(); ++i)
      delta[i] = budget.epsilon * (grad[i] > 0.0f   ? 1.0f
                                   : grad[i] < 0.0f ? -1.0f
                                                    : 0.0f);
  } else {
    // L2 fast gradient method: epsilon * grad / ||grad||.
    delta = grad;
    scale_to_budget(delta, budget);
  }
  nn::Tensor out = inputs.current_obs;
  out += delta;
  for (float& x : out.data()) x = std::clamp(x, bounds.low, bounds.high);
  if constexpr (util::kCheckedBuild)
    check_perturbation(inputs.current_obs, out, budget, bounds, "fgsm");
  return out;
}

PgdAttack::PgdAttack(std::size_t steps, float step_fraction)
    : steps_(steps), step_fraction_(step_fraction) {
  if (steps_ == 0) throw std::logic_error("PgdAttack: zero steps");
  if (step_fraction_ <= 0.0f)
    throw std::logic_error("PgdAttack: non-positive step fraction");
}

nn::Tensor PgdAttack::perturb(CraftContext& ctx, const Goal& goal,
                              const Budget& budget,
                              env::ObservationBounds bounds,
                              util::Rng& /*rng*/) {
  g_metrics.craft_pgd.add();
  g_metrics.pgd_iterations.add(steps_);
  const CraftInputs& inputs = ctx.inputs();
  // Iteration 0 evaluates at the clean input, so its gradient rides along
  // with the anchor resolution; later iterates query at the moved candidate.
  AnchoredDirection first =
      resolve_anchor_and_direction(ctx, goal, inputs.current_obs);
  nn::Tensor candidate = inputs.current_obs;
  const float step_size = step_fraction_ * budget.epsilon;
  Budget step_budget = budget;
  step_budget.epsilon = step_size;
  for (std::size_t it = 0; it < steps_; ++it) {
    nn::Tensor grad =
        it == 0 ? std::move(first.grad)
                : crafting_direction(ctx, goal, first.anchor, candidate);
    nn::Tensor step(grad.shape());
    if (budget.norm == Budget::Norm::kLinf) {
      for (std::size_t i = 0; i < grad.size(); ++i)
        step[i] = step_size * (grad[i] > 0.0f   ? 1.0f
                               : grad[i] < 0.0f ? -1.0f
                                                : 0.0f);
    } else {
      step = grad;
      scale_to_budget(step, step_budget);
    }
    candidate += step;
    project(candidate, inputs.current_obs, budget, bounds);
  }
  if constexpr (util::kCheckedBuild)
    check_perturbation(inputs.current_obs, candidate, budget, bounds, "pgd");
  return candidate;
}

std::vector<float> position_logits(seq2seq::Seq2SeqModel& model,
                                   const CraftInputs& inputs,
                                   std::size_t position,
                                   const nn::Tensor& current_obs) {
  g_metrics.queries_forward.add();
  nn::Tensor logits = model.forward(inputs.action_history, inputs.obs_history,
                                    current_obs);
  const std::size_t m = logits.dim(1), a = logits.dim(2);
  if (position >= m)
    throw std::logic_error("position_logits: position out of range");
  auto row = logits.data().subspan(position * a, a);
  return {row.begin(), row.end()};
}

nn::Tensor logit_diff_gradient(seq2seq::Seq2SeqModel& model,
                               const CraftInputs& inputs,
                               std::size_t position, std::size_t a,
                               std::size_t b, const nn::Tensor& current_obs) {
  g_metrics.queries_gradient.add();
  nn::Tensor logits = model.forward(inputs.action_history, inputs.obs_history,
                                    current_obs);
  const std::size_t m = logits.dim(1), actions = logits.dim(2);
  if (position >= m || a >= actions || b >= actions)
    throw std::logic_error("logit_diff_gradient: index out of range");
  nn::Tensor grad_logits(logits.shape());
  grad_logits[position * actions + a] = 1.0f;
  grad_logits[position * actions + b] -= 1.0f;  // a == b yields zero grad
  model.zero_grad();
  auto grads = model.backward(grad_logits);
  model.zero_grad();
  return std::move(grads.current_obs);
}

CwAttack::CwAttack(std::size_t iterations, float c, float lr, float kappa)
    : iterations_(iterations), c_(c), lr_(lr), kappa_(kappa) {
  if (iterations_ == 0) throw std::logic_error("CwAttack: zero iterations");
  if (lr_ <= 0.0f) throw std::logic_error("CwAttack: non-positive lr");
}

nn::Tensor CwAttack::perturb(CraftContext& ctx, const Goal& goal,
                             const Budget& budget,
                             env::ObservationBounds bounds,
                             util::Rng& /*rng*/) {
  g_metrics.craft_cw.add();
  const CraftInputs& inputs = ctx.inputs();
  // Anchor on the clean prediction (untargeted) or the requested target.
  const auto clean_pred = ctx.predict_actions();
  if (goal.position >= clean_pred.size())
    throw std::logic_error("CwAttack: goal position beyond output sequence");
  const std::size_t anchor = goal.mode == Goal::Mode::kTargeted
                                 ? goal.target_action
                                 : clean_pred[goal.position];

  nn::Tensor candidate = inputs.current_obs;
  for (std::size_t it = 0; it < iterations_; ++it) {
    g_metrics.cw_iterations.add();
    const auto logits = ctx.position_logits(goal.position, candidate);
    // Best competing class to the anchor.
    std::size_t best_other = anchor == 0 ? 1 : 0;
    for (std::size_t j = 0; j < logits.size(); ++j)
      if (j != anchor && logits[j] > logits[best_other]) best_other = j;
    // Untargeted: want anchor to LOSE -> minimise (z_anchor - z_other).
    // Targeted: want anchor (= target) to WIN -> minimise (z_other - z_anchor).
    const float margin = goal.mode == Goal::Mode::kTargeted
                             ? logits[best_other] - logits[anchor]
                             : logits[anchor] - logits[best_other];
    if (margin < -kappa_) break;  // already confidently flipped

    nn::Tensor margin_grad =
        goal.mode == Goal::Mode::kTargeted
            ? ctx.logit_diff_gradient(goal.position, best_other, anchor,
                                      candidate)
            : ctx.logit_diff_gradient(goal.position, anchor, best_other,
                                      candidate);
    // Total objective gradient: 2 * delta + c * d margin.
    for (std::size_t i = 0; i < candidate.size(); ++i) {
      const float delta = candidate[i] - inputs.current_obs[i];
      candidate[i] -= lr_ * (2.0f * delta + c_ * margin_grad[i]);
    }
    project(candidate, inputs.current_obs, budget, bounds);
  }
  if constexpr (util::kCheckedBuild)
    check_perturbation(inputs.current_obs, candidate, budget, bounds, "cw");
  return candidate;
}

JsmaAttack::JsmaAttack(std::size_t max_features)
    : max_features_(max_features) {
  if (max_features_ == 0)
    throw std::logic_error("JsmaAttack: zero max_features");
}

nn::Tensor JsmaAttack::perturb(CraftContext& ctx, const Goal& goal,
                               const Budget& budget,
                               env::ObservationBounds bounds,
                               util::Rng& /*rng*/) {
  g_metrics.craft_jsma.add();
  const CraftInputs& inputs = ctx.inputs();
  const auto clean_pred = ctx.predict_actions();
  if (goal.position >= clean_pred.size())
    throw std::logic_error("JsmaAttack: goal position beyond output sequence");
  const std::size_t anchor = goal.mode == Goal::Mode::kTargeted
                                 ? goal.target_action
                                 : clean_pred[goal.position];

  const std::size_t features =
      std::min<std::size_t>(max_features_, inputs.current_obs.size());
  // Per-feature step sized so the worst case exactly fills the budget.
  const float theta =
      budget.norm == Budget::Norm::kLinf
          ? budget.epsilon
          : budget.epsilon / std::sqrt(static_cast<float>(features));

  nn::Tensor candidate = inputs.current_obs;
  std::vector<bool> used(candidate.size(), false);
  for (std::size_t round = 0; round < features; ++round) {
    g_metrics.jsma_rounds.add();
    const auto logits = ctx.position_logits(goal.position, candidate);
    std::size_t best_other = anchor == 0 ? (logits.size() > 1 ? 1 : 0) : 0;
    for (std::size_t j = 0; j < logits.size(); ++j)
      if (j != anchor && logits[j] > logits[best_other]) best_other = j;
    if (goal.mode == Goal::Mode::kUntargeted &&
        logits[best_other] > logits[anchor])
      break;  // prediction already flipped
    if (goal.mode == Goal::Mode::kTargeted &&
        logits[anchor] > logits[best_other])
      break;  // target already dominant

    // Saliency: increase (other - anchor) for untargeted flips, increase
    // (anchor - other) for targeted forcing.
    nn::Tensor saliency =
        goal.mode == Goal::Mode::kTargeted
            ? ctx.logit_diff_gradient(goal.position, anchor, best_other,
                                      candidate)
            : ctx.logit_diff_gradient(goal.position, best_other, anchor,
                                      candidate);
    std::size_t pick = candidate.size();
    float best_mag = 0.0f;
    for (std::size_t i = 0; i < saliency.size(); ++i) {
      if (used[i]) continue;
      const float mag = std::abs(saliency[i]);
      if (mag > best_mag) {
        best_mag = mag;
        pick = i;
      }
    }
    if (pick == candidate.size() || best_mag == 0.0f) break;
    used[pick] = true;
    candidate[pick] += saliency[pick] > 0.0f ? theta : -theta;
    project(candidate, inputs.current_obs, budget, bounds);
  }
  if constexpr (util::kCheckedBuild)
    check_perturbation(inputs.current_obs, candidate, budget, bounds, "jsma");
  return candidate;
}

AttackPtr make_attack(Kind kind) {
  switch (kind) {
    case Kind::kGaussian: return std::make_unique<GaussianAttack>();
    case Kind::kFgsm: return std::make_unique<FgsmAttack>();
    case Kind::kPgd: return std::make_unique<PgdAttack>();
    case Kind::kCw: return std::make_unique<CwAttack>();
    case Kind::kJsma: return std::make_unique<JsmaAttack>();
  }
  throw std::logic_error("make_attack: invalid enum");
}

Kind parse_attack(const std::string& name) {
  if (name == "gaussian" || name == "noise") return Kind::kGaussian;
  if (name == "fgsm") return Kind::kFgsm;
  if (name == "pgd") return Kind::kPgd;
  if (name == "cw") return Kind::kCw;
  if (name == "jsma") return Kind::kJsma;
  throw std::invalid_argument("unknown attack: " + name);
}

std::string attack_name(Kind kind) {
  switch (kind) {
    case Kind::kGaussian: return "gaussian";
    case Kind::kFgsm: return "fgsm";
    case Kind::kPgd: return "pgd";
    case Kind::kCw: return "cw";
    case Kind::kJsma: return "jsma";
  }
  throw std::logic_error("attack_name: invalid enum");
}

}  // namespace rlattack::attack
