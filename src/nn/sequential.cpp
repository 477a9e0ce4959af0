#include "rlattack/nn/sequential.hpp"

#include <stdexcept>

#include "rlattack/obs/metrics.hpp"
#include "rlattack/util/check.hpp"

namespace rlattack::nn {

Sequential& Sequential::add(LayerPtr layer) {
  if (!layer) throw std::logic_error("Sequential::add: null layer");
  // Pre-register the per-layer telemetry spans so forward/backward never do
  // a name lookup; metrics are shared per layer-class name across every
  // Sequential instance.
  auto& registry = obs::MetricsRegistry::global();
  forward_spans_.push_back(&registry.span("nn.forward." + layer->name()));
  backward_spans_.push_back(&registry.span("nn.backward." + layer->name()));
  layers_.push_back(std::move(layer));
  params_cache_.clear();
  params_cached_ = false;
  return *this;
}

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  if constexpr (util::kCheckedBuild) {
    checked_input_shapes_.clear();
    RLATTACK_CHECK(util::all_finite(x.data()),
                   "Sequential::forward: non-finite input (element " +
                       std::to_string(util::first_non_finite(x.data())) +
                       " of " + x.shape_string() + ")");
  }
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    auto& l = layers_[i];
    if constexpr (util::kCheckedBuild) checked_input_shapes_.push_back(x.shape());
    {
      obs::Span span(*forward_spans_[i]);
      x = l->forward(x);
    }
    if constexpr (util::kCheckedBuild) {
      const std::size_t bad = util::first_non_finite(x.data());
      RLATTACK_CHECK(bad == static_cast<std::size_t>(-1),
                     "Sequential::forward: layer " + l->name() +
                         " produced non-finite output (element " +
                         std::to_string(bad) + " of " + x.shape_string() + ")");
    }
  }
  if constexpr (util::kCheckedBuild) checked_output_shape_ = x.shape();
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  return backward_chain(grad_output, &Layer::backward);
}

Tensor Sequential::backward_input(const Tensor& grad_output) {
  return backward_chain(grad_output, &Layer::backward_input);
}

Tensor Sequential::backward_chain(const Tensor& grad_output,
                                  Tensor (Layer::*step)(const Tensor&)) {
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(checked_input_shapes_.size() == layers_.size(),
                   "Sequential::backward: called without a matching forward");
    RLATTACK_CHECK(grad_output.shape() == checked_output_shape_,
                   "Sequential::backward: gradient shape " +
                       grad_output.shape_string() +
                       " does not match forward output shape " +
                       util::shape_string(checked_output_shape_));
    RLATTACK_CHECK(
        util::all_finite(grad_output.data()),
        "Sequential::backward: non-finite incoming gradient (element " +
            std::to_string(util::first_non_finite(grad_output.data())) + ")");
  }
  Tensor g = grad_output;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    {
      obs::Span span(*backward_spans_[i]);
      g = (layers_[i].get()->*step)(g);
    }
    if constexpr (util::kCheckedBuild) {
      RLATTACK_CHECK(g.shape() == checked_input_shapes_[i],
                     "Sequential::backward: layer " + layers_[i]->name() +
                         " returned gradient " + g.shape_string() +
                         " for forward input " +
                         util::shape_string(checked_input_shapes_[i]));
      const std::size_t bad = util::first_non_finite(g.data());
      RLATTACK_CHECK(bad == static_cast<std::size_t>(-1),
                     "Sequential::backward: layer " + layers_[i]->name() +
                         " produced non-finite gradient (element " +
                         std::to_string(bad) + ")");
    }
  }
  return g;
}

std::vector<Param> Sequential::params() {
  if (!params_cached_) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      for (Param p : layers_[i]->params()) {
        p.name = "layer" + std::to_string(i) + "." + p.name;
        params_cache_.push_back(p);
      }
    }
    params_cached_ = true;
  }
  return params_cache_;
}

void Sequential::set_training(bool training) {
  for (auto& l : layers_) l->set_training(training);
}

void Sequential::resample_noise(util::Rng& rng) {
  for (auto& l : layers_) l->resample_noise(rng);
}

TimeDistributed::TimeDistributed(LayerPtr inner,
                                 std::vector<std::size_t> inner_input_shape)
    : inner_(std::move(inner)), inner_shape_(std::move(inner_input_shape)) {
  if (!inner_) throw std::logic_error("TimeDistributed: null inner layer");
  if (inner_shape_.empty())
    throw std::logic_error("TimeDistributed: empty inner shape");
}

Tensor TimeDistributed::forward(const Tensor& input) {
  if (input.rank() < 3)
    throw std::logic_error("TimeDistributed::forward: expected [B, T, ...]");
  cached_batch_ = input.dim(0);
  cached_steps_ = input.dim(1);
  cached_input_shape_ = input.shape();
  const std::size_t per_step = shape_numel(inner_shape_);
  if (input.size() != cached_batch_ * cached_steps_ * per_step)
    throw std::logic_error(
        "TimeDistributed::forward: input does not match inner shape");
  std::vector<std::size_t> folded{cached_batch_ * cached_steps_};
  folded.insert(folded.end(), inner_shape_.begin(), inner_shape_.end());
  Tensor y = inner_->forward(input.reshaped(std::move(folded)));
  if (y.dim(0) != cached_batch_ * cached_steps_)
    throw std::logic_error(
        "TimeDistributed::forward: inner layer changed the batch extent");
  std::vector<std::size_t> unfolded{cached_batch_, cached_steps_};
  for (std::size_t d = 1; d < y.rank(); ++d) unfolded.push_back(y.dim(d));
  return y.reshaped(std::move(unfolded));
}

Tensor TimeDistributed::backward(const Tensor& grad_output) {
  return backward_folded(grad_output, &Layer::backward);
}

Tensor TimeDistributed::backward_input(const Tensor& grad_output) {
  return backward_folded(grad_output, &Layer::backward_input);
}

Tensor TimeDistributed::backward_folded(const Tensor& grad_output,
                                        Tensor (Layer::*step)(const Tensor&)) {
  if (grad_output.rank() < 3 || grad_output.dim(0) != cached_batch_ ||
      grad_output.dim(1) != cached_steps_)
    throw std::logic_error("TimeDistributed::backward: shape mismatch");
  std::vector<std::size_t> folded{cached_batch_ * cached_steps_};
  for (std::size_t d = 2; d < grad_output.rank(); ++d)
    folded.push_back(grad_output.dim(d));
  Tensor g =
      (inner_.get()->*step)(grad_output.reshaped(std::move(folded)));
  // Return the gradient in the caller's original input shape (it may have
  // fed flattened frames, e.g. [B, T, H*W] into a conv inner layer).
  return g.reshaped(cached_input_shape_);
}

}  // namespace rlattack::nn
