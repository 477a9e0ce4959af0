#include "rlattack/env/noisy_obs.hpp"

#include <algorithm>
#include <stdexcept>

namespace rlattack::env {

NoisyObservationWrapper::NoisyObservationWrapper(EnvPtr inner, float stddev,
                                                 std::uint64_t seed)
    : inner_(std::move(inner)), stddev_(stddev), rng_(seed) {
  if (!inner_)
    throw std::logic_error("NoisyObservationWrapper: null environment");
  if (stddev_ < 0.0f)
    throw std::logic_error("NoisyObservationWrapper: negative stddev");
}

void NoisyObservationWrapper::seed(std::uint64_t seed) {
  rng_ = util::Rng(seed ^ 0xA5A5A5A5u);
  inner_->seed(seed);
}

nn::Tensor NoisyObservationWrapper::corrupt(nn::Tensor obs) {
  const ObservationBounds bounds = inner_->observation_bounds();
  for (float& x : obs.data())
    x = std::clamp(x + rng_.normal_f(0.0f, stddev_), bounds.low, bounds.high);
  return obs;
}

nn::Tensor NoisyObservationWrapper::reset() { return corrupt(inner_->reset()); }

StepResult NoisyObservationWrapper::step(std::size_t action) {
  StepResult result = inner_->step(action);
  result.observation = corrupt(std::move(result.observation));
  return result;
}

}  // namespace rlattack::env
