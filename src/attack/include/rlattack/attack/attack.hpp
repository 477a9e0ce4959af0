// Adversarial-sample crafting against the seq2seq approximator
// (Section 4.4). All attacks perturb only the current observation s_t; the
// histories A_{t-1}, S_{t-1} are read-only inputs, exactly matching the
// threat model ("past states and target agent memory cannot be modified").
//
// Three attackers, in the paper's order of sophistication:
//   - GaussianAttack: random jamming; uses no model information. The
//     paper's headline methodological point is that this baseline is about
//     as good as the gradient attacks at reducing reward.
//   - FgsmAttack: one gradient step (Goodfellow et al. 2015), extended to
//     the L2-ball variant so budgets are comparable across attacks.
//   - PgdAttack: iterative projected gradient descent (Madry et al. 2018).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rlattack/env/environment.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::attack {

/// Perturbation budget: the norm ball the adversarial sample must stay in.
struct Budget {
  enum class Norm { kL2, kLinf };
  Norm norm = Norm::kL2;
  float epsilon = 0.5f;
};

/// What the attacker wants the victim's predicted action sequence to do.
struct Goal {
  enum class Mode {
    kUntargeted,  ///< flip the action at `position` away from its prediction
    kTargeted     ///< force `target_action` at `position` (time-bomb)
  };
  Mode mode = Mode::kUntargeted;
  std::size_t position = 0;       ///< output-sequence index to attack
  std::size_t target_action = 0;  ///< used by kTargeted
};

/// The crafting inputs: one rollout-FIFO snapshot, batch size 1.
struct CraftInputs {
  nn::Tensor action_history;  ///< [1, n, A]
  nn::Tensor obs_history;     ///< [1, n, F]
  nn::Tensor current_obs;     ///< [1, F]
};

class BatchedCraftPlanner;
struct CraftProbe;

/// One craft's model-query frontend (the Section 4.4 attack loop). The
/// histories (A_{t-1}, S_{t-1}) are fixed for the whole craft, so the
/// context encodes them lazily exactly once — on the first model query, so
/// model-free attacks never pay for it — and answers every further query,
/// iterative PGD/CW/JSMA steps included, from the approximator's tail over
/// that encoding. Each query becomes one CraftProbe (batch_planner.hpp):
/// a context over a model resolves it at once as a one-row batch, and a
/// context over a BatchedCraftPlanner submits it to the planner's
/// rendezvous, so concurrent sessions' tail evaluations fuse into shared
/// batched GEMMs. Both answer with the same bits and the same query
/// accounting, bit-identical to the full-path free helpers below, which
/// tests keep as the reference. `model` and `inputs` must outlive the
/// context; one context serves exactly one (A_{t-1}, S_{t-1}) snapshot.
class CraftContext {
 public:
  CraftContext(seq2seq::Seq2SeqModel& model, const CraftInputs& inputs);
  /// Planner-backed context: queries become probes batched across every
  /// session of the planner's rendezvous. Queries must come from a fiber of
  /// the planner's run(); elsewhere they throw std::logic_error.
  CraftContext(BatchedCraftPlanner& planner, const CraftInputs& inputs);
  CraftContext(const CraftContext&) = delete;
  CraftContext& operator=(const CraftContext&) = delete;

  const CraftInputs& inputs() const noexcept { return inputs_; }

  // Tail-path equivalents of the free helpers at the bottom of this header
  // (same shapes, same bits, same query accounting).
  std::vector<std::size_t> predict_actions();
  std::vector<float> position_logits(std::size_t position,
                                     const nn::Tensor& current_obs);
  nn::Tensor current_obs_gradient(std::size_t position, std::size_t action,
                                  const nn::Tensor& current_obs);
  nn::Tensor logit_diff_gradient(std::size_t position, std::size_t a,
                                 std::size_t b, const nn::Tensor& current_obs);
  /// predict_actions() at `current_obs` and current_obs_gradient() against
  /// the predicted action at `position`, answered by ONE fused probe: the
  /// CE target is the argmax of the same forward pass the gradient needs,
  /// so the answer is bit-identical to asking separately, at one tail
  /// forward (and, over a planner, one rendezvous round) less. Query
  /// counters are incremented exactly as the two separate calls would.
  std::pair<std::vector<std::size_t>, nn::Tensor> anchored_gradient(
      std::size_t position, const nn::Tensor& current_obs);

  /// Per-context query tallies, counted at exactly the sites that feed the
  /// global attack.queries.* counters. The forensics stream differences
  /// these across a step to attribute queries to it; the process-wide
  /// telemetry is unaffected.
  std::size_t queries_forward() const noexcept { return q_forward_; }
  std::size_t queries_gradient() const noexcept { return q_gradient_; }

 private:
  /// Points `probe` at this context's inputs and encoding slot, then
  /// submits it to the planner or resolves it at once.
  void ask(CraftProbe& probe);

  seq2seq::Seq2SeqModel& model_;
  const CraftInputs& inputs_;
  /// Non-null when this context routes through a planner rendezvous.
  BatchedCraftPlanner* planner_ = nullptr;
  bool encoded_ = false;
  seq2seq::HistoryEncoding encoding_;
  std::size_t q_forward_ = 0;   ///< forward queries through this context
  std::size_t q_gradient_ = 0;  ///< gradient queries through this context
};

class Attack {
 public:
  virtual ~Attack() = default;
  Attack() = default;
  Attack(const Attack&) = delete;
  Attack& operator=(const Attack&) = delete;

  /// Crafting entry point: returns the perturbed current observation (same
  /// shape as ctx.inputs().current_obs), clamped to `bounds` and within
  /// `budget` of the original. All model queries go through `ctx`, which
  /// amortises the history encoding across the craft's iterations.
  virtual nn::Tensor perturb(CraftContext& ctx, const Goal& goal,
                             const Budget& budget,
                             env::ObservationBounds bounds,
                             util::Rng& rng) = 0;

  /// Convenience overload: crafts through a fresh one-shot context over
  /// (model, inputs). Derived classes re-expose it with
  /// `using Attack::perturb;`.
  nn::Tensor perturb(seq2seq::Seq2SeqModel& model, const CraftInputs& inputs,
                     const Goal& goal, const Budget& budget,
                     env::ObservationBounds bounds, util::Rng& rng);

  virtual std::string name() const = 0;
};

using AttackPtr = std::unique_ptr<Attack>;

/// Random Gaussian jamming scaled exactly to the budget (the baseline the
/// paper argues all evaluations should include).
class GaussianAttack final : public Attack {
 public:
  using Attack::perturb;
  nn::Tensor perturb(CraftContext& ctx, const Goal& goal, const Budget& budget,
                     env::ObservationBounds bounds, util::Rng& rng) override;
  std::string name() const override { return "gaussian"; }
};

/// Single-step fast gradient attack: sign step for L-inf budgets, normalised
/// gradient step for L2 budgets.
class FgsmAttack final : public Attack {
 public:
  using Attack::perturb;
  nn::Tensor perturb(CraftContext& ctx, const Goal& goal, const Budget& budget,
                     env::ObservationBounds bounds, util::Rng& rng) override;
  std::string name() const override { return "fgsm"; }
};

/// Iterative projected gradient descent with `steps` iterations of size
/// `step_fraction * epsilon`, projecting back into the budget ball after
/// every step.
class PgdAttack final : public Attack {
 public:
  explicit PgdAttack(std::size_t steps = 7, float step_fraction = 0.3f);

  using Attack::perturb;
  nn::Tensor perturb(CraftContext& ctx, const Goal& goal, const Budget& budget,
                     env::ObservationBounds bounds, util::Rng& rng) override;
  std::string name() const override { return "pgd"; }

  std::size_t steps() const noexcept { return steps_; }

 private:
  std::size_t steps_;
  float step_fraction_;
};

/// Carlini–Wagner-style attack (extension; Section 4.4 of the paper argues
/// full CW is too slow for RL's thousands of per-episode decisions, so this
/// is the practical budget-bounded variant): minimises
///   ||delta||_2^2 + c * margin(x + delta)
/// by Adam-style gradient descent on delta, where margin is the CW f6 loss
/// on the attacked output position, then projects into the attack budget
/// for comparability with the other attacks.
class CwAttack final : public Attack {
 public:
  explicit CwAttack(std::size_t iterations = 20, float c = 1.0f,
                    float lr = 0.05f, float kappa = 0.0f);

  using Attack::perturb;
  nn::Tensor perturb(CraftContext& ctx, const Goal& goal, const Budget& budget,
                     env::ObservationBounds bounds, util::Rng& rng) override;
  std::string name() const override { return "cw"; }

 private:
  std::size_t iterations_;
  float c_;
  float lr_;
  float kappa_;
};

/// JSMA-style saliency attack (extension; Behzadan & Munir attack RL
/// policies with JSMA in the paper's related work). Greedily perturbs the
/// most salient input features one at a time — the saliency of feature i is
/// the gradient of the (other - anchor) logit margin — changing at most
/// `max_features` coordinates, then projects into the budget ball. Produces
/// characteristically *sparse* perturbations, unlike FGSM/PGD's dense ones.
class JsmaAttack final : public Attack {
 public:
  explicit JsmaAttack(std::size_t max_features = 8);

  using Attack::perturb;
  nn::Tensor perturb(CraftContext& ctx, const Goal& goal, const Budget& budget,
                     env::ObservationBounds bounds, util::Rng& rng) override;
  std::string name() const override { return "jsma"; }

 private:
  std::size_t max_features_;
};

/// Checked-build (RLATTACK_CHECKED) audit of a finished perturbation: same
/// shape as the original, all-finite, inside the observation bounds, and
/// within the declared epsilon-ball of the (bounds-clamped) original. Every
/// built-in attack self-checks through this, and the episode pipeline runs
/// it after each Attack::perturb so third-party attacks are verified at the
/// same trust boundary. Throws util::CheckFailure on violation; a no-op in
/// release builds.
void check_perturbation(const nn::Tensor& original,
                        const nn::Tensor& perturbed, const Budget& budget,
                        env::ObservationBounds bounds, const char* attack);

/// Attack identifiers used across benches/tests.
enum class Kind { kGaussian, kFgsm, kPgd, kCw, kJsma };
AttackPtr make_attack(Kind kind);
Kind parse_attack(const std::string& name);
std::string attack_name(Kind kind);

/// Runs the model on the inputs and returns the predicted action sequence
/// (argmax per output step).
std::vector<std::size_t> predict_actions(seq2seq::Seq2SeqModel& model,
                                         const CraftInputs& inputs);

/// d CE(logits[position], action) / d current_obs. The direction FGSM/PGD
/// ascend (untargeted) or descend (targeted).
nn::Tensor current_obs_gradient(seq2seq::Seq2SeqModel& model,
                                const CraftInputs& inputs,
                                std::size_t position, std::size_t action,
                                const nn::Tensor& current_obs);

/// Logits of the model at `current_obs` for output step `position`.
std::vector<float> position_logits(seq2seq::Seq2SeqModel& model,
                                   const CraftInputs& inputs,
                                   std::size_t position,
                                   const nn::Tensor& current_obs);

/// d (z[position][a] - z[position][b]) / d current_obs — the CW margin
/// gradient.
nn::Tensor logit_diff_gradient(seq2seq::Seq2SeqModel& model,
                               const CraftInputs& inputs,
                               std::size_t position, std::size_t a,
                               std::size_t b, const nn::Tensor& current_obs);

}  // namespace rlattack::attack
