#include "rlattack/nn/layer.hpp"

#include <stdexcept>

#include "rlattack/util/check.hpp"

namespace rlattack::nn {

Tensor Layer::backward_input(const Tensor& grad_output) {
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(params().empty(),
                   name() + "::backward_input: a layer with parameters must "
                            "override the default, which runs backward");
  }
  return backward(grad_output);
}

void copy_parameters(Layer& dst, Layer& src) {
  auto d = dst.params();
  auto s = src.params();
  if (d.size() != s.size())
    throw std::logic_error("copy_parameters: parameter count mismatch");
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (!d[i].value->same_shape(*s[i].value))
      throw std::logic_error("copy_parameters: shape mismatch at " +
                             d[i].name);
    *d[i].value = *s[i].value;
  }
}

void soft_update_parameters(Layer& dst, Layer& src, float tau) {
  auto d = dst.params();
  auto s = src.params();
  if (d.size() != s.size())
    throw std::logic_error("soft_update_parameters: parameter count mismatch");
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (!d[i].value->same_shape(*s[i].value))
      throw std::logic_error("soft_update_parameters: shape mismatch at " +
                             d[i].name);
    auto dd = d[i].value->data();
    auto sd = s[i].value->data();
    for (std::size_t j = 0; j < dd.size(); ++j)
      dd[j] = (1.0f - tau) * dd[j] + tau * sd[j];
  }
}

std::size_t parameter_count(Layer& layer) {
  std::size_t n = 0;
  for (const Param& p : layer.params()) n += p.value->size();
  return n;
}

}  // namespace rlattack::nn
