// FrameStack: concatenates the last k observations so reactive policies can
// infer motion (standard Atari preprocessing; the paper's "frame stacking"
// in Section 4.1). Image observations [C, H, W] stack to [k*C, H, W];
// vector observations [F] stack to [k*F], newest last.
//
// Under the threat model (Section 4.2) an attacker perturbs only the
// *current* frame; previously stacked frames are history and immutable.
// The attack harness therefore perturbs observations before they enter this
// wrapper-equivalent stacking done on the agent side.
#pragma once

#include <deque>

#include "rlattack/env/environment.hpp"

namespace rlattack::env {

class FrameStack final : public Environment {
 public:
  FrameStack(EnvPtr inner, std::size_t k);

  void seed(std::uint64_t seed) override { inner_->seed(seed); }
  nn::Tensor reset() override;
  StepResult step(std::size_t action) override;
  std::size_t action_count() const override { return inner_->action_count(); }
  std::vector<std::size_t> observation_shape() const override;
  ObservationBounds observation_bounds() const override {
    return inner_->observation_bounds();
  }
  std::string name() const override {
    return inner_->name() + "_stack" + std::to_string(k_);
  }

  std::size_t stack_depth() const noexcept { return k_; }
  Environment& inner() noexcept { return *inner_; }

  /// Replaces the newest frame in the stack and returns the re-stacked
  /// observation; lets the attack harness perturb only s_t while keeping
  /// the stacked history clean, as the threat model requires.
  nn::Tensor with_current_frame(const nn::Tensor& frame) const;

 private:
  nn::Tensor stacked() const;

  EnvPtr inner_;
  std::size_t k_;
  std::deque<nn::Tensor> frames_;
};

}  // namespace rlattack::env
