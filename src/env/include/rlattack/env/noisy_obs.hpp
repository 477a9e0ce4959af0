// Observation-noise wrapper: injects Gaussian noise into every observation
// an agent receives during training. Used to reproduce the adversarial-
// training defence discussion (Pattanaik et al., cited in the paper's
// related work): agents trained under observation noise should degrade
// more gracefully under attack.
#pragma once

#include "rlattack/env/environment.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::env {

class NoisyObservationWrapper final : public Environment {
 public:
  /// `stddev` is the per-element Gaussian noise scale; observations are
  /// clamped back to the inner environment's valid bounds after injection.
  NoisyObservationWrapper(EnvPtr inner, float stddev, std::uint64_t seed);

  void seed(std::uint64_t seed) override;
  nn::Tensor reset() override;
  StepResult step(std::size_t action) override;
  std::size_t action_count() const override { return inner_->action_count(); }
  std::vector<std::size_t> observation_shape() const override {
    return inner_->observation_shape();
  }
  ObservationBounds observation_bounds() const override {
    return inner_->observation_bounds();
  }
  std::string name() const override {
    return inner_->name() + "_noisy";
  }

  float stddev() const noexcept { return stddev_; }

 private:
  nn::Tensor corrupt(nn::Tensor obs);

  EnvPtr inner_;
  float stddev_;
  util::Rng rng_;
};

}  // namespace rlattack::env
