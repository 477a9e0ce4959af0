#include "rlattack/nn/activations.hpp"

#include <cmath>
#include <stdexcept>

namespace rlattack::nn {

Tensor ReLU::forward(const Tensor& input) {
  cached_input_ = input;
  Tensor out = input;
  for (float& x : out.data()) x = x > 0.0f ? x : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_input_))
    throw std::logic_error("ReLU::backward: shape mismatch");
  Tensor grad = grad_output;
  auto gd = grad.data();
  auto xd = cached_input_.data();
  // Select form (not a conditional store) so the loop vectorises.
  for (std::size_t i = 0; i < gd.size(); ++i)
    gd[i] = xd[i] <= 0.0f ? 0.0f : gd[i];
  return grad;
}

Tensor Tanh::forward(const Tensor& input) {
  Tensor out = input;
  for (float& x : out.data()) x = std::tanh(x);
  cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_))
    throw std::logic_error("Tanh::backward: shape mismatch");
  Tensor grad = grad_output;
  auto gd = grad.data();
  auto yd = cached_output_.data();
  for (std::size_t i = 0; i < gd.size(); ++i)
    gd[i] *= 1.0f - yd[i] * yd[i];
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input) {
  Tensor out = input;
  for (float& x : out.data()) x = 1.0f / (1.0f + std::exp(-x));
  cached_output_ = out;
  return out;
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (!grad_output.same_shape(cached_output_))
    throw std::logic_error("Sigmoid::backward: shape mismatch");
  Tensor grad = grad_output;
  auto gd = grad.data();
  auto yd = cached_output_.data();
  for (std::size_t i = 0; i < gd.size(); ++i)
    gd[i] *= yd[i] * (1.0f - yd[i]);
  return grad;
}

}  // namespace rlattack::nn
