// Batched craft queries: many concurrent craft sessions, one shared tail.
//
// Every attack iteration — a PGD step, a CW margin probe, a timebomb
// trigger craft — asks the approximator the same question with a different
// s_t row. CraftContext turns each such question into a CraftProbe, and one
// resolver (resolve_craft_probes) answers any list of probes with one
// batched encode_history_batch / forward_cached_batch /
// backward_to_current_batch pass. A context without a planner resolves its
// probe at once, as a one-row batch; a context over a BatchedCraftPlanner
// submits it to the planner's rendezvous, which fuses concurrent sessions'
// probes into one [M, F] tail evaluation at full arithmetic intensity:
//
//   - BatchedCraftPlanner::run runs the sessions as fibers (util::Fiber) on
//     the calling thread. The attacks are unchanged; only CraftContext's
//     query layer reroutes, submitting one probe per model query.
//   - A submit queues its probe and switches to the scheduler, which
//     resumes the fibers in index order, each until it submits or
//     finishes. Then every unfinished fiber waits on one probe, and the
//     scheduler flushes them all: eval probes first, then craft probes.
//   - Per-row bit-identity of the batched model calls (seq2seq/model.hpp)
//     makes each probe's answer independent of batch membership, so episode
//     outcomes are bit-identical to planner-less crafts.
//   - A flush that throws (the victim handler or the model) answers every
//     pending probe with the exception, and each submit rethrows it, so the
//     error surfaces in every waiting session instead of parking it.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <span>
#include <vector>

#include "rlattack/attack/attack.hpp"

namespace rlattack::attack {

/// In-flight episodes (fibers) the episode driver runs at most (the
/// rendezvous width upper bound): 32. Batching is an arithmetic-intensity
/// win, so the width is decoupled from the machine's thread count
/// (measured on a 1-core host, 32 beat 16 on every fig5/fig6 row and
/// widths beyond ~32 were flat).
constexpr std::size_t eval_batch_width() noexcept { return 32; }

/// One model query of a CraftContext. Input fields alias session-owned
/// storage (CraftInputs, the context's encoding slot); the resolver writes
/// the result fields.
struct CraftProbe {
  enum class Kind {
    kForward,        ///< logits only
    kCeGradient,     ///< d CE(logits[position], action) / d s_t
    kDiffGradient,   ///< d (z[p][a] - z[p][b]) / d s_t
    kAnchorGradient  ///< logits + d CE(logits[position], argmax) / d s_t
  };
  Kind kind = Kind::kForward;
  const CraftInputs* inputs = nullptr;
  seq2seq::HistoryEncoding* encoding = nullptr;  ///< context's cache slot
  bool* encoded = nullptr;                       ///< context's lazy flag
  const nn::Tensor* current_obs = nullptr;       ///< [1, F]
  std::size_t position = 0;
  std::size_t action_a = 0;  ///< CE target / diff "a"
  std::size_t action_b = 0;  ///< diff "b"
  nn::Tensor logits;         ///< [1, m, A] (kForward, kAnchorGradient)
  nn::Tensor grad;           ///< [1, F] (gradient kinds)
  std::exception_ptr error;  ///< the exception of a flush that threw
};

/// The one craft query path: encodes the not-yet-encoded contexts' histories
/// in one encode_history_batch, runs one forward_cached_batch over every
/// probe's s_t row, builds each gradient kind's loss row, runs one
/// backward_to_current_batch and scatters logits and gradients back. Counts
/// every probe it answers in craft.batch.probes.
void resolve_craft_probes(seq2seq::Seq2SeqModel& model,
                          std::span<CraftProbe* const> probes);

/// The rendezvous that gathers the per-iteration probes of M concurrent
/// CraftContexts (and the sessions' victim queries) into shared batched
/// calls. The shared model is only touched inside a flush, between fiber
/// slices — the sessions need no model clones. Each session's query
/// counters and metrics are preserved: CraftContext increments them before
/// it submits, exactly as a planner-less context does.
class BatchedCraftPlanner {
 public:
  explicit BatchedCraftPlanner(seq2seq::Seq2SeqModel& model);
  BatchedCraftPlanner(const BatchedCraftPlanner&) = delete;
  BatchedCraftPlanner& operator=(const BatchedCraftPlanner&) = delete;

  seq2seq::Seq2SeqModel& model() noexcept { return model_; }

  /// Runs body(0) ... body(fibers - 1), each as a fiber on the calling
  /// thread, and returns once every one has finished. An exception that
  /// escapes a body ends that fiber only; run then rethrows the exception
  /// of the lowest failing fiber index. Throws std::logic_error when called
  /// from one of this planner's fibers.
  void run(std::size_t fibers, const std::function<void(std::size_t)>& body);

  // --- Episode-batched evaluation substrate -------------------------------
  //
  // The craft rendezvous generalizes to any per-step query family whose
  // batched evaluation is per-row bit-identical to its serial form. Eval
  // probes carry an opaque observation row; the driver registers a handler
  // (typically rl::Agent::act_batch over the gathered rows) so this layer
  // stays free of rl types. Both families share one rendezvous round: an
  // episode waits on whichever query its step needs next.

  /// One pending evaluation query: an observation row in, an action out.
  /// `observation` aliases caller-owned storage that must stay alive until
  /// submit() returns; the flush writes `action`, or `error` when it threw.
  struct EvalProbe {
    const nn::Tensor* observation = nullptr;  ///< [S...] agent-shaped row
    std::size_t action = 0;
    std::exception_ptr error;
  };

  /// Batched resolver for a flush's gathered eval probes: reads every
  /// probe's observation, writes every probe's action.
  using EvalHandler = std::function<void(std::span<EvalProbe* const>)>;

  /// Registers the eval resolver; a flush of eval probes without one fails
  /// them with std::bad_function_call.
  void set_victim_handler(EvalHandler handler);

  /// Parks the calling fiber until a flush answers the probe, and rethrows
  /// the flush's exception if it threw. Throws std::logic_error outside a
  /// fiber of this planner's run().
  void submit(EvalProbe& probe);

 private:
  friend class CraftContext;

  /// As submit(EvalProbe&), for a CraftContext's query.
  void submit(CraftProbe& probe);
  /// Answers every queued probe: the eval probes through the victim
  /// handler, then the craft probes through resolve_craft_probes. An
  /// exception from either step answers every still-pending probe with it
  /// and empties both queues.
  void flush();

  seq2seq::Seq2SeqModel& model_;
  EvalHandler victim_handler_;
  /// True while one of run()'s fibers runs; submits are valid only then.
  bool in_fiber_ = false;
  /// Pending craft probes in fiber order; cleared by flush.
  std::vector<CraftProbe*> queue_;
  /// Pending evaluation probes in fiber order; cleared by flush.
  std::vector<EvalProbe*> eval_queue_;
};

}  // namespace rlattack::attack
