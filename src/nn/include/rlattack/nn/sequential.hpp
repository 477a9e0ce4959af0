// Sequential container and the TimeDistributed adapter.
#pragma once

#include <memory>

#include "rlattack/nn/layer.hpp"

namespace rlattack::obs {
class SpanStat;
}

namespace rlattack::nn {

/// Ordered chain of layers. forward runs layers first-to-last; backward and
/// backward_input run last-to-first, calling the same entry point on every
/// layer, and return the gradient with respect to the chain input.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for fluent construction.
  Sequential& add(LayerPtr layer);

  /// Convenience: constructs L in place.
  template <typename L, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward_input(const Tensor& grad_output) override;
  /// Qualified parameter views ("layer<i>.<name>"). Built once per topology
  /// (add() invalidates) — the per-call name concatenation used to run on
  /// every zero_grad. Layers must not be mutated behind the container's
  /// back after the first call (the views alias layer-owned tensors).
  std::vector<Param> params() override;
  std::string name() const override { return "Sequential"; }
  void set_training(bool training) override;
  void resample_noise(util::Rng& rng) override;

  std::size_t layer_count() const noexcept { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

 private:
  /// Shared body of backward/backward_input: runs `step` on every layer,
  /// last to first, under the per-layer backward spans and checked-build
  /// shape/finite checks.
  Tensor backward_chain(const Tensor& grad_output,
                        Tensor (Layer::*step)(const Tensor&));

  std::vector<LayerPtr> layers_;
  // Lazily built qualified parameter views (see params()); cleared by add().
  std::vector<Param> params_cache_;
  bool params_cached_ = false;
  // Per-layer telemetry spans (nn.forward.<LayerName> /
  // nn.backward.<LayerName>), registered once in add(); all Sequential
  // instances share the per-name aggregate in the global registry.
  std::vector<obs::SpanStat*> forward_spans_;
  std::vector<obs::SpanStat*> backward_spans_;
  // Checked-build bookkeeping (util::kCheckedBuild): per-layer input shapes
  // and the chain output shape recorded by forward, so backward can verify
  // the gradient contract (each layer's input gradient matches its forward
  // input shape) at every boundary. Empty in release builds.
  std::vector<std::vector<std::size_t>> checked_input_shapes_;
  std::vector<std::size_t> checked_output_shape_;
};

/// Applies an inner layer independently at every timestep of a [B, T, ...]
/// tensor by folding time into the batch dimension: [B, T, ...] ->
/// [B*T, ...] -> inner -> [B*T, F'] -> [B, T, F'].
///
/// This is how the per-frame convolutional stack of the seq2seq observation
/// head (Table 2: "6 Conv, ... ") is applied to an image *sequence* before
/// the LSTMs.
class TimeDistributed final : public Layer {
 public:
  /// `inner_input_shape` is the per-step shape (without batch), e.g.
  /// {1, 16, 16} for single-channel frames fed to a Conv2D stack.
  TimeDistributed(LayerPtr inner, std::vector<std::size_t> inner_input_shape);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward_input(const Tensor& grad_output) override;
  std::vector<Param> params() override { return inner_->params(); }
  std::string name() const override { return "TimeDistributed"; }
  void set_training(bool training) override { inner_->set_training(training); }
  void resample_noise(util::Rng& rng) override { inner_->resample_noise(rng); }

 private:
  /// Shared body of backward/backward_input: folds time into the batch,
  /// runs `step` on the inner layer and restores the input shape.
  Tensor backward_folded(const Tensor& grad_output,
                         Tensor (Layer::*step)(const Tensor&));

  LayerPtr inner_;
  std::vector<std::size_t> inner_shape_;
  std::vector<std::size_t> cached_input_shape_;
  std::size_t cached_batch_ = 0;
  std::size_t cached_steps_ = 0;
};

}  // namespace rlattack::nn
