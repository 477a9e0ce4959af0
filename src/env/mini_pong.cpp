#include "rlattack/env/mini_pong.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rlattack::env {

namespace {
constexpr float kBallShade = 1.0f;
constexpr float kPlayerShade = 0.8f;
constexpr float kCpuShade = 0.6f;
}  // namespace

MiniPong::MiniPong() : MiniPong(Config{}, 1) {}

MiniPong::MiniPong(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  if (config_.width < 6 || config_.height < 6)
    throw std::logic_error("MiniPong: field too small");
  if (config_.paddle_height >= config_.height)
    throw std::logic_error("MiniPong: paddle taller than field");
}

void MiniPong::seed(std::uint64_t seed) {
  rng_ = util::Rng(seed);
}

void MiniPong::launch_ball(int direction) {
  ball_x_ = static_cast<double>(config_.width) / 2.0;
  ball_y_ = static_cast<double>(config_.height) / 2.0;
  ball_vx_ = direction * config_.ball_speed;
  ball_vy_ = rng_.uniform(-0.5, 0.5);
}

nn::Tensor MiniPong::reset() {
  const double mid = (static_cast<double>(config_.height) -
                      static_cast<double>(config_.paddle_height)) /
                     2.0;
  player_y_ = mid;
  cpu_y_ = mid;
  player_points_ = 0;
  cpu_points_ = 0;
  steps_ = 0;
  done_ = false;
  launch_ball(rng_.bernoulli(0.5) ? 1 : -1);
  return render();
}

StepResult MiniPong::step(std::size_t action) {
  if (done_)
    throw std::logic_error("MiniPong::step: episode finished; call reset()");
  if (action >= action_count())
    throw std::logic_error("MiniPong::step: invalid action");

  const double max_top = static_cast<double>(config_.height) -
                         static_cast<double>(config_.paddle_height);
  if (action == 1) player_y_ -= config_.player_speed;
  if (action == 2) player_y_ += config_.player_speed;
  player_y_ = std::clamp(player_y_, 0.0, max_top);

  // CPU tracks the ball centre at limited speed, only while the ball is
  // moving toward it — otherwise it drifts back to centre.
  const double cpu_target =
      ball_vx_ < 0.0
          ? ball_y_ - static_cast<double>(config_.paddle_height) / 2.0
          : max_top / 2.0;
  const double cpu_delta =
      std::clamp(cpu_target - cpu_y_, -config_.cpu_speed, config_.cpu_speed);
  cpu_y_ = std::clamp(cpu_y_ + cpu_delta, 0.0, max_top);

  ball_x_ += ball_vx_;
  ball_y_ += ball_vy_;

  // Wall bounce (top/bottom).
  const double h = static_cast<double>(config_.height);
  if (ball_y_ < 0.0) {
    ball_y_ = -ball_y_;
    ball_vy_ = -ball_vy_;
  } else if (ball_y_ > h - 1.0) {
    ball_y_ = 2.0 * (h - 1.0) - ball_y_;
    ball_vy_ = -ball_vy_;
  }

  double reward = 0.0;
  const double ph = static_cast<double>(config_.paddle_height);

  // Player paddle plane is x = width - 1; CPU plane is x = 0.
  const double player_plane = static_cast<double>(config_.width) - 1.0;
  if (ball_vx_ > 0.0 && ball_x_ >= player_plane) {
    if (ball_y_ >= player_y_ - 0.5 && ball_y_ <= player_y_ + ph - 0.5) {
      ball_x_ = 2.0 * player_plane - ball_x_;
      ball_vx_ = -ball_vx_;
      const double rel =
          (ball_y_ - (player_y_ + ph / 2.0 - 0.5)) / (ph / 2.0);
      ball_vy_ += config_.english * rel;
      ball_vy_ = std::clamp(ball_vy_, -1.2, 1.2);
    } else {
      ++cpu_points_;
      reward -= 1.0;
      launch_ball(-1);
    }
  } else if (ball_vx_ < 0.0 && ball_x_ <= 0.0) {
    if (ball_y_ >= cpu_y_ - 0.5 && ball_y_ <= cpu_y_ + ph - 0.5) {
      ball_x_ = -ball_x_;
      ball_vx_ = -ball_vx_;
      const double rel = (ball_y_ - (cpu_y_ + ph / 2.0 - 0.5)) / (ph / 2.0);
      ball_vy_ += config_.english * rel;
      ball_vy_ = std::clamp(ball_vy_, -1.2, 1.2);
    } else {
      ++player_points_;
      reward += 1.0;
      launch_ball(1);
    }
  }

  // Dense shaping: reward the player for keeping the paddle centred on the
  // ball row (small relative to point rewards; see Config).
  if (config_.shaping_weight > 0.0) {
    const double centre = player_y_ + ph / 2.0 - 0.5;
    const double dist = std::abs(centre - ball_y_) / h;
    reward += config_.shaping_weight * (1.0 - 2.0 * dist);
  }

  ++steps_;
  done_ = player_points_ >= config_.points_to_win ||
          cpu_points_ >= config_.points_to_win || steps_ >= config_.max_steps;

  StepResult result;
  result.observation = render();
  result.reward = reward;
  result.done = done_;
  return result;
}

nn::Tensor MiniPong::render() const {
  const std::size_t w = config_.width, h = config_.height;
  nn::Tensor frame({1, h, w});
  auto put = [&](double yf, std::size_t x, float shade) {
    const auto y = static_cast<std::ptrdiff_t>(std::lround(yf));
    if (y >= 0 && y < static_cast<std::ptrdiff_t>(h))
      frame[static_cast<std::size_t>(y) * w + x] =
          std::max(frame[static_cast<std::size_t>(y) * w + x], shade);
  };
  for (std::size_t i = 0; i < config_.paddle_height; ++i) {
    put(cpu_y_ + static_cast<double>(i), 0, kCpuShade);
    put(player_y_ + static_cast<double>(i), w - 1, kPlayerShade);
  }
  const auto bx = static_cast<std::ptrdiff_t>(std::lround(ball_x_));
  if (bx >= 0 && bx < static_cast<std::ptrdiff_t>(w))
    put(ball_y_, static_cast<std::size_t>(bx), kBallShade);
  return frame;
}

}  // namespace rlattack::env
