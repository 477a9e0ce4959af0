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
//   - Episode host threads run the unchanged attacks; only CraftContext's
//     query layer reroutes, submitting one probe per model query.
//   - Sessions that may still query enroll a Participant (RAII). A probe
//     blocks its submitter; when every enrolled participant is waiting, the
//     last submitter resolves the whole queue on the shared model and wakes
//     everyone with their row.
//   - Per-row bit-identity of the batched model calls (seq2seq/model.hpp)
//     makes each probe's answer independent of batch membership, so episode
//     outcomes are bit-identical to planner-less crafts no matter how the
//     flushes interleave.
//   - A flush that throws (the victim handler or the model) answers every
//     pending probe with the exception, and each submit rethrows it, so the
//     error surfaces in every waiting session instead of parking it.
//
// Liveness rule: a flush waits for every enrolled participant, so a
// participant must keep probing until it retires. The episode driver's
// sessions query the victim every step, so they stay enrolled for their
// whole episode.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <span>
#include <vector>

#include "rlattack/attack/attack.hpp"
#include "rlattack/util/thread_safety.hpp"

namespace rlattack::attack {

/// Concurrent episode hosts the episode driver runs at most (the
/// rendezvous width upper bound): 32. Batching is an arithmetic-intensity
/// win, so the width is decoupled from the machine's thread count
/// (measured on a 1-core host, 32 beat 16 on every fig5/fig6 row and
/// widths beyond ~32 were flat).
constexpr std::size_t eval_batch_width() noexcept { return 32; }

/// Checked builds only: a participant parked in the rendezvous longer than
/// this interval (milliseconds) emits a "craft.batch.stall" instant trace
/// event and counter increment each time the interval elapses — a stalled
/// flush (e.g. an enrolled session that never probes) becomes visible in
/// the timeline instead of a silent hang. RLATTACK_TRACE_STALL_MS sets the
/// process-initial value; default 250, clamped to >= 1. Release builds
/// never arm the watchdog.
std::size_t stall_watchdog_ms() noexcept;
void set_stall_watchdog_ms(std::size_t ms) noexcept;

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
  /// Set under the planner lock when the rendezvous answered the probe;
  /// `error` holds the exception of a flush that threw.
  bool done = false;
  std::exception_ptr error;
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
/// calls. The shared model is only ever touched inside a flush, by exactly
/// one thread at a time — host threads need no model clones. Each session's
/// query counters and metrics are preserved: CraftContext increments them
/// before it submits, exactly as a planner-less context does.
class BatchedCraftPlanner {
 public:
  explicit BatchedCraftPlanner(seq2seq::Seq2SeqModel& model);
  BatchedCraftPlanner(const BatchedCraftPlanner&) = delete;
  BatchedCraftPlanner& operator=(const BatchedCraftPlanner&) = delete;
  ~BatchedCraftPlanner();

  seq2seq::Seq2SeqModel& model() noexcept { return model_; }

  /// RAII enrollment of one episode host in the rendezvous. Construct
  /// before the first probe, destroy (or retire()) as soon as no further
  /// probes can come — flushes wait for every enrolled participant.
  class Participant {
   public:
    explicit Participant(BatchedCraftPlanner& planner);
    Participant(const Participant&) = delete;
    Participant& operator=(const Participant&) = delete;
    ~Participant();

    /// Early exit from the rendezvous (idempotent): call when the session
    /// can no longer query the model, e.g. right after a single-step
    /// attack fires.
    void retire() noexcept;

   private:
    BatchedCraftPlanner& planner_;
    bool retired_ = false;
  };

  // --- Episode-batched evaluation substrate -------------------------------
  //
  // The craft rendezvous generalizes to any per-step query family whose
  // batched evaluation is per-row bit-identical to its serial form. Eval
  // probes carry an opaque observation row; the driver registers a handler
  // (typically rl::Agent::act_batch over the gathered rows) so this layer
  // stays free of rl types. Craft probes and eval probes share ONE enrolled
  // set and one rendezvous condition — pending craft + eval probes ==
  // enrolled participants — because an episode blocks on whichever query
  // its step needs next; two independent rendezvous over the same hosts
  // would deadlock.

  /// One pending evaluation query: an observation row in, an action out.
  /// `observation` aliases caller-owned storage that must stay alive until
  /// submit() returns; `action` (or `error`, when the flush threw) is
  /// written by the flushing thread under the planner lock before `done`
  /// flips.
  struct EvalProbe {
    const nn::Tensor* observation = nullptr;  ///< [S...] agent-shaped row
    std::size_t action = 0;
    bool done = false;
    std::exception_ptr error;
  };

  /// Batched resolver for a flush's gathered eval probes: reads every
  /// probe's observation, writes every probe's action. Runs under the
  /// planner lock on the flushing host thread — single-threaded access to
  /// whatever model it wraps, exactly like the craft flush.
  using EvalHandler = std::function<void(std::span<EvalProbe* const>)>;

  /// Registers the eval resolver. Must be called before host threads start
  /// submitting; a planner without a handler rejects eval probes (checked).
  void set_victim_handler(EvalHandler handler);
  bool has_victim_handler() const noexcept;

  /// Blocks the calling participant until a flush answers the probe, and
  /// rethrows the flush's exception if it threw.
  void submit(EvalProbe& probe) RLATTACK_EXCLUDES(mu_);

 private:
  friend class CraftContext;

  // Lock protocol, statically enforced (-Wthread-safety, config "tsa"):
  // the public rendezvous API acquires mu_ itself and therefore must be
  // entered lock-free (RLATTACK_EXCLUDES — a participant that re-entered
  // with mu_ held would self-deadlock the flush it is waiting on), while
  // flush_ready_locked REQUIRES(mu_): the batched model pass runs inline
  // under the planner mutex, only ever reachable from the last-arriving
  // submitter or a completing retire — never from a pool worker, which
  // has no path to mu_ (submit() additionally asserts this in checked
  // builds).

  /// Blocks the calling participant until a flush answers the probe, and
  /// rethrows the flush's exception if it threw.
  void submit(CraftProbe& probe) RLATTACK_EXCLUDES(mu_);
  void enroll() RLATTACK_EXCLUDES(mu_);
  void retire() noexcept RLATTACK_EXCLUDES(mu_);
  /// Completes the rendezvous: resolves the pending eval probes through the
  /// victim handler, then the pending craft probes through
  /// resolve_craft_probes, and wakes every parked submitter. Caller holds
  /// mu_; all other enrolled participants are parked on cv_. An exception
  /// from either step answers every still-pending probe with it and
  /// empties both queues.
  void flush_ready_locked() RLATTACK_REQUIRES(mu_);
  /// Total pending probes across both families.
  std::size_t pending_locked() const RLATTACK_REQUIRES(mu_) {
    return queue_.size() + eval_queue_.size();
  }

  seq2seq::Seq2SeqModel& model_;
  EvalHandler victim_handler_;  ///< set before hosts start, then read-only
  util::Mutex mu_;
  std::condition_variable cv_;
  /// Participants that may still probe; a flush fires when every one of
  /// them has a probe queued across the two families (pending_locked() ==
  /// enrolled_).
  std::size_t enrolled_ RLATTACK_GUARDED_BY(mu_) = 0;
  /// Pending craft probes in arrival order; cleared by flush.
  std::vector<CraftProbe*> queue_ RLATTACK_GUARDED_BY(mu_);
  /// Pending evaluation probes in arrival order; cleared by flush.
  std::vector<EvalProbe*> eval_queue_ RLATTACK_GUARDED_BY(mu_);
};

}  // namespace rlattack::attack
