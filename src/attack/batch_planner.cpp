#include "rlattack/attack/batch_planner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <vector>

#include "rlattack/nn/loss.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/check.hpp"
#include "rlattack/util/env.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::attack {

namespace {

std::size_t parse_stall_env() {
  if (const std::optional<long> v =
          util::env::get_long(util::env::Var::kTraceStallMs);
      v && *v > 0)
    return static_cast<std::size_t>(*v);
  return 250;
}

std::atomic<std::size_t>& stall_ms() {
  static std::atomic<std::size_t> ms{parse_stall_env()};
  return ms;
}

// Pre-registered telemetry: per-flush batch size (how far the tail GEMMs
// are from m = 1), plus the pack/unpack overhead the fusion pays.
struct PlannerMetrics {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Histogram& batch_size =
      reg.histogram("craft.batch.size", {1, 2, 4, 8, 16, 32, 64});
  obs::Counter& flushes = reg.counter("craft.batch.flushes");
  obs::Counter& probes = reg.counter("craft.batch.probes");
  obs::SpanStat& gather = reg.span("craft.batch.gather");
  obs::SpanStat& scatter = reg.span("craft.batch.scatter");
  obs::Counter& stall = reg.counter("craft.batch.stall");
  // Episode-batched evaluation: the same rendezvous telemetry for the
  // per-step victim/approximator query family.
  obs::Histogram& eval_batch_size =
      reg.histogram("eval.batch.size", {1, 2, 4, 8, 16, 32, 64});
  obs::Counter& eval_flushes = reg.counter("eval.batch.flushes");
  obs::Counter& eval_probes = reg.counter("eval.batch.probes");
  obs::Counter& eval_stall = reg.counter("eval.batch.stall");
};
PlannerMetrics& planner_metrics() {
  static PlannerMetrics metrics;
  return metrics;
}

}  // namespace

std::size_t stall_watchdog_ms() noexcept {
  return stall_ms().load(std::memory_order_relaxed);
}

void set_stall_watchdog_ms(std::size_t ms) noexcept {
  stall_ms().store(ms == 0 ? 1 : ms, std::memory_order_relaxed);
}

BatchedCraftPlanner::BatchedCraftPlanner(seq2seq::Seq2SeqModel& model)
    : model_(model) {}

BatchedCraftPlanner::~BatchedCraftPlanner() {
  if constexpr (util::kCheckedBuild) {
    util::MutexLock lock(mu_);
    RLATTACK_CHECK(enrolled_ == 0 && queue_.empty() && eval_queue_.empty(),
                   "BatchedCraftPlanner destroyed with live participants "
                   "or pending probes");
  }
}

void BatchedCraftPlanner::set_victim_handler(EvalHandler handler) {
  if constexpr (util::kCheckedBuild) {
    util::MutexLock lock(mu_);
    RLATTACK_CHECK(enrolled_ == 0,
                   "BatchedCraftPlanner::set_victim_handler: handler must be "
                   "registered before participants enroll");
  }
  victim_handler_ = std::move(handler);
}

bool BatchedCraftPlanner::has_victim_handler() const noexcept {
  return static_cast<bool>(victim_handler_);
}

BatchedCraftPlanner::Participant::Participant(BatchedCraftPlanner& planner)
    : planner_(planner) {
  planner_.enroll();
}

BatchedCraftPlanner::Participant::~Participant() { retire(); }

void BatchedCraftPlanner::Participant::retire() noexcept {
  if (retired_) return;
  retired_ = true;
  planner_.retire();
}

void BatchedCraftPlanner::enroll() {
  util::MutexLock lock(mu_);
  ++enrolled_;
  obs::trace_instant("craft.enroll", "enrolled",
                     static_cast<double>(enrolled_));
}

void BatchedCraftPlanner::retire() noexcept {
  util::MutexLock lock(mu_);
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(enrolled_ > 0,
                   "BatchedCraftPlanner::retire: no enrolled participants");
  }
  --enrolled_;
  obs::trace_instant("craft.retire", "enrolled",
                     static_cast<double>(enrolled_));
  // Leaving the rendezvous can complete it: if everyone still enrolled is
  // already waiting, the retiring thread runs the flush on their behalf.
  if (pending_locked() > 0 && pending_locked() == enrolled_)
    flush_ready_locked();
}

void BatchedCraftPlanner::submit(CraftProbe& probe) {
  if constexpr (util::kCheckedBuild) {
    // The rendezvous only terminates because every host can block
    // independently. A global-pool worker that submitted would park a pool
    // thread inside the rendezvous — with a pool of one that is an
    // immediate deadlock, with more it silently serializes the kernels the
    // flush is about to run. Hosts are plain threads (parallel_episodes);
    // keep it that way.
    RLATTACK_CHECK(!util::ThreadPool::inside_worker(),
                   "BatchedCraftPlanner::submit called from a thread-pool "
                   "worker; rendezvous hosts must be dedicated threads");
  }
  util::MutexLock lock(mu_);
  if constexpr (util::kCheckedBuild) {
    // A probe from a thread without a live Participant could make
    // pending_locked() exceed enrolled_ and deadlock the rendezvous.
    RLATTACK_CHECK(enrolled_ > pending_locked(),
                   "BatchedCraftPlanner::submit: probe without a live "
                   "Participant enrollment");
  }
  queue_.push_back(&probe);
  if (pending_locked() == enrolled_) {
    // Last arrival executes the whole batch; everyone else is parked on
    // cv_ below, so holding mu_ through the model work is deadlock-free.
    flush_ready_locked();
  } else {
    // The wait is a span, so a stalled rendezvous shows as a wide
    // craft.submit_wait block in the timeline rather than a blank gap.
    obs::TraceScope trace("craft.submit_wait", "queued",
                          static_cast<double>(queue_.size()));
    // Explicit wait loop: probe.done is written by the flushing thread
    // under mu_, and reading it here keeps the guarded access inside this
    // annotated scope (see thread_safety.hpp conventions).
    if constexpr (util::kCheckedBuild) {
      // Stall watchdog: each elapsed interval without an answer fires the
      // craft.batch.stall counter and an instant trace event. Spurious
      // wakes re-arm the interval, so a firing means at least interval ms
      // of real waiting since the previous check — precise enough for
      // liveness triage.
      const auto interval =
          std::chrono::milliseconds(static_cast<long>(stall_watchdog_ms()));
      while (!probe.done) {
        if (cv_.wait_for(lock.native_lock(), interval) ==
                std::cv_status::timeout &&
            !probe.done) {
          planner_metrics().stall.add();
          obs::trace_instant("craft.batch.stall", "interval_ms",
                             static_cast<double>(stall_watchdog_ms()));
        }
      }
    } else {
      while (!probe.done) cv_.wait(lock.native_lock());
    }
  }
  if (probe.error) std::rethrow_exception(probe.error);
}

void BatchedCraftPlanner::submit(EvalProbe& probe) {
  if constexpr (util::kCheckedBuild) {
    // Same host discipline as craft probes: rendezvous hosts must be
    // dedicated threads, never global-pool workers (see submit(CraftProbe&)).
    RLATTACK_CHECK(!util::ThreadPool::inside_worker(),
                   "BatchedCraftPlanner::submit called from a thread-pool "
                   "worker; rendezvous hosts must be dedicated threads");
    RLATTACK_CHECK(has_victim_handler(),
                   "BatchedCraftPlanner::submit(EvalProbe): no victim "
                   "handler registered");
  }
  util::MutexLock lock(mu_);
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(enrolled_ > pending_locked(),
                   "BatchedCraftPlanner::submit: eval probe without a live "
                   "Participant enrollment");
  }
  eval_queue_.push_back(&probe);
  if (pending_locked() == enrolled_) {
    flush_ready_locked();
  } else {
    obs::TraceScope trace("eval.submit_wait", "queued",
                          static_cast<double>(eval_queue_.size()));
    if constexpr (util::kCheckedBuild) {
      // Eval-side stall watchdog, mirroring the craft wait loop above.
      const auto interval =
          std::chrono::milliseconds(static_cast<long>(stall_watchdog_ms()));
      while (!probe.done) {
        if (cv_.wait_for(lock.native_lock(), interval) ==
                std::cv_status::timeout &&
            !probe.done) {
          planner_metrics().eval_stall.add();
          obs::trace_instant("eval.batch.stall", "interval_ms",
                             static_cast<double>(stall_watchdog_ms()));
        }
      }
    } else {
      while (!probe.done) cv_.wait(lock.native_lock());
    }
  }
  if (probe.error) std::rethrow_exception(probe.error);
}

void BatchedCraftPlanner::flush_ready_locked() {
  // Eval probes first, craft probes second. The order is immaterial for
  // correctness — both families' batched evaluation is per-row
  // bit-identical to serial, and no probe depends on another in the same
  // rendezvous round — so it is fixed here purely for determinism of the
  // trace timeline.
  PlannerMetrics& metrics = planner_metrics();
  try {
    if (!eval_queue_.empty()) {
      const std::size_t rows = eval_queue_.size();
      obs::TraceScope trace("eval.batch.flush", "rows",
                            static_cast<double>(rows));
      metrics.eval_flushes.add();
      metrics.eval_probes.add(rows);
      metrics.eval_batch_size.record(static_cast<double>(rows));
      victim_handler_(std::span<EvalProbe* const>(eval_queue_));
      for (EvalProbe* probe : eval_queue_) probe->done = true;
      eval_queue_.clear();
    }
    if (!queue_.empty()) {
      const std::size_t rows = queue_.size();
      obs::TraceScope trace("craft.flush", "rows", static_cast<double>(rows));
      metrics.flushes.add();
      metrics.batch_size.record(static_cast<double>(rows));
      resolve_craft_probes(model_, queue_);
      for (CraftProbe* probe : queue_) probe->done = true;
      queue_.clear();
    }
  } catch (...) {
    // A throwing victim handler or model must not park the other hosts:
    // answer every probe still pending with the error (each submit rethrows
    // it) and empty both queues, so no pointer to an unwound probe stays.
    const std::exception_ptr error = std::current_exception();
    for (EvalProbe* probe : eval_queue_) {
      probe->error = error;
      probe->done = true;
    }
    for (CraftProbe* probe : queue_) {
      probe->error = error;
      probe->done = true;
    }
    eval_queue_.clear();
    queue_.clear();
  }
  cv_.notify_all();
}

void resolve_craft_probes(seq2seq::Seq2SeqModel& model,
                          std::span<CraftProbe* const> probes) {
  using ProbeKind = CraftProbe::Kind;
  PlannerMetrics& metrics = planner_metrics();
  const std::size_t rows = probes.size();
  metrics.probes.add(rows);

  const seq2seq::Seq2SeqConfig& cfg = model.config();
  const std::size_t n = cfg.input_steps;
  const std::size_t a_count = cfg.actions;
  const std::size_t m = cfg.output_steps;
  const std::size_t frame = cfg.frame_size();

  // Lazy history encodes, batched: pack the not-yet-encoded contexts'
  // histories, run the heads once, scatter the per-row encodings back into
  // the contexts' cache slots.
  std::vector<CraftProbe*> to_encode;
  for (CraftProbe* probe : probes)
    if (!*probe->encoded) to_encode.push_back(probe);
  if (!to_encode.empty()) {
    const std::size_t k = to_encode.size();
    nn::Tensor actions({k, n, a_count});
    nn::Tensor observations({k, n, frame});
    {
      obs::Span span(metrics.gather);
      for (std::size_t r = 0; r < k; ++r) {
        const CraftInputs& in = *to_encode[r]->inputs;
        std::memcpy(actions.raw() + r * n * a_count, in.action_history.raw(),
                    n * a_count * sizeof(float));
        std::memcpy(observations.raw() + r * n * frame, in.obs_history.raw(),
                    n * frame * sizeof(float));
      }
    }
    std::vector<seq2seq::HistoryEncoding> encodings =
        model.encode_history_batch(actions, observations);
    obs::Span span(metrics.scatter);
    for (std::size_t r = 0; r < k; ++r) {
      *to_encode[r]->encoding = std::move(encodings[r]);
      *to_encode[r]->encoded = true;
    }
  }

  // Shared tail forward over every probe's s_t row.
  std::vector<const seq2seq::HistoryEncoding*> caches(rows);
  nn::Tensor current({rows, frame});
  {
    obs::Span span(metrics.gather);
    for (std::size_t r = 0; r < rows; ++r) {
      caches[r] = probes[r]->encoding;
      std::memcpy(current.raw() + r * frame, probes[r]->current_obs->raw(),
                  frame * sizeof(float));
    }
  }
  nn::Tensor logits = model.forward_cached_batch(caches, current);

  // Scatter logits and assemble the per-row loss gradients. Forward-only
  // rows keep a zero gradient row: batch rows are independent through the
  // whole backward, so the zero rows cost nothing in correctness and keep
  // the gradient rows' bits identical to resolving each probe alone.
  bool any_gradient = false;
  nn::Tensor grad_logits({rows, m, a_count});
  {
    obs::Span span(metrics.scatter);
    for (std::size_t r = 0; r < rows; ++r) {
      CraftProbe& probe = *probes[r];
      float* grad_row = grad_logits.raw() + r * m * a_count;
      nn::Tensor row_logits({1, m, a_count});
      std::memcpy(row_logits.raw(), logits.raw() + r * m * a_count,
                  m * a_count * sizeof(float));
      // CE on the attacked position only; other rows get zero weight.
      const auto ce_row = [&](std::size_t target) {
        std::vector<std::size_t> targets(m, 0);
        std::vector<float> weights(m, 0.0f);
        targets[probe.position] = target;
        weights[probe.position] = 1.0f;
        nn::LossResult loss =
            nn::softmax_cross_entropy(row_logits, targets, weights);
        std::memcpy(grad_row, loss.grad.raw(), m * a_count * sizeof(float));
      };
      switch (probe.kind) {
        case ProbeKind::kForward:
          probe.logits = std::move(row_logits);
          break;
        case ProbeKind::kCeGradient:
          any_gradient = true;
          ce_row(probe.action_a);
          break;
        case ProbeKind::kDiffGradient:
          any_gradient = true;
          grad_row[probe.position * a_count + probe.action_a] += 1.0f;
          grad_row[probe.position * a_count + probe.action_b] -= 1.0f;
          break;
        case ProbeKind::kAnchorGradient: {
          // Fused anchor resolution: the CE target is the argmax of the
          // logits this same pass just computed — exactly what a kForward
          // probe followed by a kCeGradient probe would have produced.
          any_gradient = true;
          const float* row = row_logits.raw() + probe.position * a_count;
          ce_row(static_cast<std::size_t>(
              std::max_element(row, row + a_count) - row));
          probe.logits = std::move(row_logits);
          break;
        }
      }
    }
  }

  if (any_gradient) {
    nn::Tensor grads = model.backward_to_current_batch(grad_logits);
    obs::Span span(metrics.scatter);
    for (std::size_t r = 0; r < rows; ++r) {
      CraftProbe& probe = *probes[r];
      if (probe.kind == ProbeKind::kForward) continue;
      probe.grad = nn::Tensor({1, frame});
      std::memcpy(probe.grad.raw(), grads.raw() + r * frame,
                  frame * sizeof(float));
    }
  }
}

}  // namespace rlattack::attack
