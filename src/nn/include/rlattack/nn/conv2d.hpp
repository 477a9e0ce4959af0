// 2-D convolution over [B, C, H, W] tensors, with stride and zero padding.
// im2col + GEMM formulation: each batch item's receptive fields are lowered
// into a [C*k*k, OH*OW] column matrix (scratch cached across calls) and the
// convolution becomes one kernels::sgemm per item, batch-parallel on the
// shared thread pool. backward_input runs the transposed GEMM plus col2im
// per item; backward adds, in the same per-item pass, the weight/bias
// gradients, reduced in deterministic chunk order.
#pragma once

#include "rlattack/nn/layer.hpp"

namespace rlattack::nn {

class Conv2D final : public Layer {
 public:
  /// kernel: square kernel edge; stride >= 1; pad: symmetric zero padding.
  Conv2D(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward_input(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string name() const override { return "Conv2D"; }

  /// Output spatial extent for a given input extent; throws if the geometry
  /// does not produce at least one output position.
  std::size_t out_extent(std::size_t in_extent) const;

 private:
  /// Shared body of backward/backward_input: per item, the input gradient
  /// and, when `param_grads`, the weight/bias gradients.
  Tensor backward_pass(const Tensor& grad_output, bool param_grads);

  std::size_t in_c_, out_c_, k_, stride_, pad_;
  Tensor weight_;       // [out_c, in_c, k, k] — rows are GEMM-ready [out_c, C*k*k]
  Tensor bias_;         // [out_c]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;  // [B, C, H, W]
  Tensor out_buf_;       // [B, out_c, OH, OW], reused across forward calls
};

/// Max pooling over non-overlapping (or strided) windows on [B, C, H, W].
class MaxPool2D final : public Layer {
 public:
  MaxPool2D(std::size_t window, std::size_t stride);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "MaxPool2D"; }

 private:
  std::size_t window_, stride_;
  Tensor cached_input_;
  std::vector<std::size_t> argmax_;  // flat input index of each output max
};

/// Flattens [B, ...] to [B, prod(...)]. Rank-1 inputs pass through.
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Flatten"; }

 private:
  std::vector<std::size_t> cached_shape_;
};

/// Reshapes [B, ...] to [B, item_shape...]; the per-item element count must
/// match. Inverse of Flatten, e.g. to feed flat observation vectors into a
/// Conv2D stack.
class Reshape final : public Layer {
 public:
  explicit Reshape(std::vector<std::size_t> item_shape);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "Reshape"; }

 private:
  std::vector<std::size_t> item_shape_;
  std::vector<std::size_t> cached_shape_;
};

}  // namespace rlattack::nn
