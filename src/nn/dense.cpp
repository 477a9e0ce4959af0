#include "rlattack/nn/dense.hpp"

#include <stdexcept>

#include "rlattack/nn/init.hpp"
#include "rlattack/nn/kernels/gemm.hpp"

namespace rlattack::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, util::Rng& rng,
             bool relu_fan_in)
    : in_(in_features),
      out_(out_features),
      weight_({out_features, in_features}),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  if (in_ == 0 || out_ == 0)
    throw std::logic_error("Dense: zero-sized feature dimension");
  if (relu_fan_in)
    he_uniform(weight_, in_, rng);
  else
    xavier_uniform(weight_, in_, out_, rng);
}

Tensor Dense::forward(const Tensor& input) {
  input_was_rank1_ = input.rank() == 1;
  Tensor x = input_was_rank1_ ? input.reshaped({1, input.size()}) : input;
  if (x.rank() != 2 || x.dim(1) != in_)
    throw std::logic_error("Dense::forward: expected [B, " +
                           std::to_string(in_) + "], got " +
                           input.shape_string());
  cached_input_ = x;
  const std::size_t batch = x.dim(0);
  // Reusable output buffer: only reallocated when the batch size changes.
  if (out_buf_.rank() != 2 || out_buf_.dim(0) != batch)
    out_buf_ = Tensor({batch, out_});
  // y = bias (broadcast per row), then y += x W^T in one GEMM.
  kernels::broadcast_bias_rows(batch, out_, bias_.raw(), out_buf_.raw(), out_);
  kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kYes, batch, out_, in_,
                 x.raw(), in_, weight_.raw(), in_, out_buf_.raw(), out_,
                 /*accumulate=*/true);
  if (input_was_rank1_) return out_buf_.reshaped({out_});
  return out_buf_;
}

Tensor Dense::backward_input(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0);
  const bool shape_ok =
      grad_output.rank() == 1
          ? grad_output.size() == out_ && batch == 1
          : grad_output.rank() == 2 && grad_output.dim(1) == out_ &&
                grad_output.dim(0) == batch;
  if (!shape_ok)
    throw std::logic_error("Dense::backward: gradient shape mismatch " +
                           grad_output.shape_string());
  Tensor grad_input =
      input_was_rank1_ ? Tensor({in_}) : Tensor({batch, in_});
  // dx = g W
  kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kNo, batch, in_, out_,
                 grad_output.raw(), out_, weight_.raw(), in_,
                 grad_input.raw(), in_, /*accumulate=*/false);
  return grad_input;
}

Tensor Dense::backward(const Tensor& grad_output) {
  Tensor grad_input = backward_input(grad_output);
  const std::size_t batch = cached_input_.dim(0);
  // dW += g^T x
  kernels::sgemm(kernels::Trans::kYes, kernels::Trans::kNo, out_, in_, batch,
                 grad_output.raw(), out_, cached_input_.raw(), in_,
                 grad_weight_.raw(), in_, /*accumulate=*/true);
  // db += column sums of g
  kernels::col_sums_accumulate(batch, out_, grad_output.raw(), out_,
                               grad_bias_.raw());
  return grad_input;
}

std::vector<Param> Dense::params() {
  return {{&weight_, &grad_weight_, "dense.weight"},
          {&bias_, &grad_bias_, "dense.bias"}};
}

}  // namespace rlattack::nn
