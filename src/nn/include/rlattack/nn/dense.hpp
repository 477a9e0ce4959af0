// Fully connected layer: y = x W^T + b, batched over the leading dimension.
#pragma once

#include "rlattack/nn/layer.hpp"

namespace rlattack::nn {

/// Dense (fully connected) layer.
///
/// Input  [B, in_features]  (or [in_features], treated as B = 1)
/// Output [B, out_features]
/// Weight stored as [out_features, in_features]; forward/backward are three
/// kernels::sgemm calls (y = x W^T + b, dx = g W, dW += g^T x), so all the
/// arithmetic runs on the shared cache-blocked, pool-parallel GEMM path.
/// backward_input runs the dx GEMM alone.
class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng,
        bool relu_fan_in = false);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward_input(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string name() const override { return "Dense"; }

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor grad_weight_;  // same shapes as the values
  Tensor grad_bias_;
  Tensor cached_input_;  // [B, in], saved by forward for the backward pass
  Tensor out_buf_;       // [B, out], reused across forward calls
  bool input_was_rank1_ = false;
};

}  // namespace rlattack::nn
