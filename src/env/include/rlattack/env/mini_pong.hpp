// MiniPong: the Atari Pong substitute (see DESIGN.md substitution table).
//
// A player paddle (right edge) rallies a ball against a speed-limited CPU
// paddle (left edge) on a small grayscale raster. Dynamics are continuous
// (sub-pixel ball position/velocity, paddle "english") and only the render
// is quantised, so the observation stream behaves like cropped Atari frames:
// the agent must infer motion from stacked frames.
//
// Rewards mirror Atari Pong: +1 when the ball passes the CPU, -1 when it
// passes the player; episode ends when either side reaches
// `points_to_win` or after `max_steps`.
#pragma once

#include "rlattack/env/environment.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::env {

class MiniPong final : public Environment {
 public:
  struct Config {
    std::size_t width = 16;
    std::size_t height = 16;
    std::size_t paddle_height = 4;
    std::size_t points_to_win = 3;
    std::size_t max_steps = 400;
    double ball_speed = 0.9;   ///< pixels per step along x
    double player_speed = 1.0;
    double cpu_speed = 0.55;   ///< < ball_speed: the CPU is beatable
    double english = 0.35;     ///< vy change per unit of paddle-relative hit offset
    /// Tiny dense shaping term (paddle-tracks-ball) that makes the sparse
    /// point reward learnable in CPU-scale training budgets. Contributes
    /// ~0.02/step, orders of magnitude below the +/-1 point rewards that
    /// dominate the episode score.
    double shaping_weight = 0.02;
  };

  MiniPong();
  explicit MiniPong(Config config, std::uint64_t seed = 1);

  void seed(std::uint64_t seed) override;
  nn::Tensor reset() override;
  StepResult step(std::size_t action) override;
  std::size_t action_count() const override { return 3; }  // stay/up/down
  std::vector<std::size_t> observation_shape() const override {
    return {1, config_.height, config_.width};
  }
  ObservationBounds observation_bounds() const override {
    return {0.0f, 1.0f};
  }
  std::string name() const override { return "mini_pong"; }

  const Config& config() const noexcept { return config_; }
  /// Current score as (player points, cpu points); for tests.
  std::pair<std::size_t, std::size_t> score() const {
    return {player_points_, cpu_points_};
  }

 private:
  nn::Tensor render() const;
  void launch_ball(int direction);

  Config config_;
  util::Rng rng_;
  double player_y_ = 0.0;  // paddle top, continuous
  double cpu_y_ = 0.0;
  double ball_x_ = 0.0, ball_y_ = 0.0;
  double ball_vx_ = 0.0, ball_vy_ = 0.0;
  std::size_t player_points_ = 0, cpu_points_ = 0;
  std::size_t steps_ = 0;
  bool done_ = true;
};

}  // namespace rlattack::env
