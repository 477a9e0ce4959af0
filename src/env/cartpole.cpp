#include "rlattack/env/cartpole.hpp"

#include <cmath>
#include <stdexcept>

namespace rlattack::env {

CartPole::CartPole() : CartPole(Config{}, 1) {}

CartPole::CartPole(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {}

void CartPole::seed(std::uint64_t seed) {
  rng_ = util::Rng(seed);
}

nn::Tensor CartPole::observation() const {
  nn::Tensor obs({4});
  obs[0] = static_cast<float>(x_);
  obs[1] = static_cast<float>(x_dot_);
  obs[2] = static_cast<float>(theta_);
  obs[3] = static_cast<float>(theta_dot_);
  return obs;
}

nn::Tensor CartPole::reset() {
  x_ = rng_.uniform(-0.05, 0.05);
  x_dot_ = rng_.uniform(-0.05, 0.05);
  theta_ = rng_.uniform(-0.05, 0.05);
  theta_dot_ = rng_.uniform(-0.05, 0.05);
  steps_ = 0;
  done_ = false;
  return observation();
}

StepResult CartPole::step(std::size_t action) {
  if (done_)
    throw std::logic_error("CartPole::step: episode finished; call reset()");
  if (action >= action_count())
    throw std::logic_error("CartPole::step: invalid action");

  const double force = action == 1 ? config_.force_mag : -config_.force_mag;
  const double cos_theta = std::cos(theta_);
  const double sin_theta = std::sin(theta_);
  const double total_mass = config_.mass_cart + config_.mass_pole;
  const double pole_mass_length =
      config_.mass_pole * config_.half_pole_length;

  const double temp =
      (force + pole_mass_length * theta_dot_ * theta_dot_ * sin_theta) /
      total_mass;
  const double theta_acc =
      (config_.gravity * sin_theta - cos_theta * temp) /
      (config_.half_pole_length *
       (4.0 / 3.0 - config_.mass_pole * cos_theta * cos_theta / total_mass));
  const double x_acc =
      temp - pole_mass_length * theta_acc * cos_theta / total_mass;

  // Semi-implicit is what Gym calls "euler": update positions with old
  // velocities first.
  x_ += config_.tau * x_dot_;
  x_dot_ += config_.tau * x_acc;
  theta_ += config_.tau * theta_dot_;
  theta_dot_ += config_.tau * theta_acc;
  ++steps_;

  const bool failed = x_ < -config_.x_threshold || x_ > config_.x_threshold ||
                      theta_ < -config_.theta_threshold_rad ||
                      theta_ > config_.theta_threshold_rad;
  const bool timeout = steps_ >= config_.max_steps;
  done_ = failed || timeout;

  StepResult result;
  result.observation = observation();
  result.reward = 1.0;  // Gym CartPole grants +1 for every step taken.
  result.done = done_;
  return result;
}

}  // namespace rlattack::env
