#include "rlattack/attack/batch_planner.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <vector>

#include "rlattack/nn/loss.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/fiber.hpp"

namespace rlattack::attack {

namespace {

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
  // Episode-batched evaluation: the same rendezvous telemetry for the
  // per-step victim/approximator query family.
  obs::Histogram& eval_batch_size =
      reg.histogram("eval.batch.size", {1, 2, 4, 8, 16, 32, 64});
  obs::Counter& eval_flushes = reg.counter("eval.batch.flushes");
  obs::Counter& eval_probes = reg.counter("eval.batch.probes");
};
PlannerMetrics& planner_metrics() {
  static PlannerMetrics metrics;
  return metrics;
}

}  // namespace

BatchedCraftPlanner::BatchedCraftPlanner(seq2seq::Seq2SeqModel& model)
    : model_(model) {}

void BatchedCraftPlanner::set_victim_handler(EvalHandler handler) {
  victim_handler_ = std::move(handler);
}

void BatchedCraftPlanner::run(std::size_t fibers,
                              const std::function<void(std::size_t)>& body) {
  if (in_fiber_)
    throw std::logic_error("BatchedCraftPlanner::run: called from a fiber "
                           "of its own rendezvous");
  std::vector<std::unique_ptr<util::Fiber>> pool;
  pool.reserve(fibers);
  for (std::size_t f = 0; f < fibers; ++f)
    pool.push_back(std::make_unique<util::Fiber>([&body, f] { body(f); }));
  for (;;) {
    // One round: every unfinished fiber runs until it submits a probe or
    // finishes, so afterwards every unfinished fiber waits on one probe.
    std::size_t live = 0;
    for (const std::unique_ptr<util::Fiber>& fiber : pool) {
      if (fiber->finished()) continue;
      in_fiber_ = true;
      fiber->resume();
      in_fiber_ = false;
      if (!fiber->finished()) ++live;
    }
    if (live == 0) break;
    flush();
  }
  for (const std::unique_ptr<util::Fiber>& fiber : pool)
    if (fiber->error()) std::rethrow_exception(fiber->error());
}

namespace {

/// Queues `probe` and parks the calling fiber until the flush that answers
/// it; the park is a trace span, so the timeline shows each episode's wait.
template <class Probe>
void park(bool in_fiber, std::vector<Probe*>& queue, Probe& probe,
          const char* wait_span) {
  if (!in_fiber)
    throw std::logic_error(
        "BatchedCraftPlanner::submit outside a running rendezvous");
  queue.push_back(&probe);
  {
    obs::TraceScope trace(wait_span, "queued",
                          static_cast<double>(queue.size()));
    util::Fiber::yield();
  }
  if (probe.error) std::rethrow_exception(probe.error);
}

}  // namespace

void BatchedCraftPlanner::submit(CraftProbe& probe) {
  park(in_fiber_, queue_, probe, "craft.submit_wait");
}

void BatchedCraftPlanner::submit(EvalProbe& probe) {
  park(in_fiber_, eval_queue_, probe, "eval.submit_wait");
}

void BatchedCraftPlanner::flush() {
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
      eval_queue_.clear();
    }
    if (!queue_.empty()) {
      const std::size_t rows = queue_.size();
      obs::TraceScope trace("craft.flush", "rows", static_cast<double>(rows));
      metrics.flushes.add();
      metrics.batch_size.record(static_cast<double>(rows));
      resolve_craft_probes(model_, queue_);
      queue_.clear();
    }
  } catch (...) {
    // A throwing victim handler or model must not strand the other
    // episodes: answer every probe still pending with the error (each
    // submit rethrows it) and empty both queues.
    const std::exception_ptr error = std::current_exception();
    for (EvalProbe* probe : eval_queue_) probe->error = error;
    for (CraftProbe* probe : queue_) probe->error = error;
    eval_queue_.clear();
    queue_.clear();
  }
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
