// CartPole with the canonical Barto–Sutton–Anderson dynamics, matching the
// constants of OpenAI Gym's CartPole-v0 (the paper's first target game).
// Observation: [x, x_dot, theta, theta_dot]. Actions: {push left, push
// right}. Reward: +1 per surviving step; episode ends when the pole tips
// past 12 degrees, the cart leaves +/-2.4, or max_steps elapse.
#pragma once

#include "rlattack/env/environment.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::env {

class CartPole final : public Environment {
 public:
  struct Config {
    std::size_t max_steps = 200;  ///< CartPole-v0 horizon
    double force_mag = 10.0;
    double gravity = 9.8;
    double mass_cart = 1.0;
    double mass_pole = 0.1;
    double half_pole_length = 0.5;
    double tau = 0.02;  ///< integration timestep (s)
    double x_threshold = 2.4;
    double theta_threshold_rad = 12.0 * 2.0 * 3.14159265358979323846 / 360.0;
  };

  CartPole();
  explicit CartPole(Config config, std::uint64_t seed = 1);

  void seed(std::uint64_t seed) override;
  nn::Tensor reset() override;
  StepResult step(std::size_t action) override;
  std::size_t action_count() const override { return 2; }
  std::vector<std::size_t> observation_shape() const override { return {4}; }
  ObservationBounds observation_bounds() const override {
    // Positions/angles are bounded by the termination thresholds but
    // velocities are unbounded; use a wide box so attacks are unclipped,
    // as with Gym's float32 box space.
    return {-1e9f, 1e9f};
  }
  std::string name() const override { return "cartpole"; }

  const Config& config() const noexcept { return config_; }

 private:
  nn::Tensor observation() const;

  Config config_;
  util::Rng rng_;
  double x_ = 0.0, x_dot_ = 0.0, theta_ = 0.0, theta_dot_ = 0.0;
  std::size_t steps_ = 0;
  bool done_ = true;
};

}  // namespace rlattack::env
