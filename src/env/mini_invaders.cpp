#include "rlattack/env/mini_invaders.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rlattack::env {

namespace {
constexpr float kAlienShade = 1.0f;
constexpr float kBulletShade = 0.9f;
constexpr float kPlayerShade = 0.8f;
constexpr float kBombShade = 0.7f;
constexpr float kShieldShade = 0.5f;
}  // namespace

MiniInvaders::MiniInvaders() : MiniInvaders(Config{}, 1) {}

MiniInvaders::MiniInvaders(Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  if (config_.width < 8 || config_.height < 10)
    throw std::logic_error("MiniInvaders: field too small");
  const std::size_t wave_width =
      (config_.alien_cols - 1) * config_.alien_spacing + 1;
  if (wave_width + 2 > config_.width)
    throw std::logic_error("MiniInvaders: alien wave wider than field");
}

void MiniInvaders::seed(std::uint64_t seed) {
  rng_ = util::Rng(seed);
}

std::ptrdiff_t MiniInvaders::alien_x(std::size_t c) const {
  return wave_x_ + static_cast<std::ptrdiff_t>(c * config_.alien_spacing);
}

std::ptrdiff_t MiniInvaders::alien_y(std::size_t r) const {
  return wave_y_ + static_cast<std::ptrdiff_t>(r);
}

std::size_t MiniInvaders::aliens_alive() const {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), true));
}

nn::Tensor MiniInvaders::reset() {
  alive_.assign(config_.alien_rows * config_.alien_cols, true);
  wave_x_ = 1;
  wave_y_ = 1;
  march_dir_ = 1;
  since_march_ = 0;
  player_x_ = config_.width / 2;
  bullet_active_ = false;
  bombs_.clear();
  steps_ = 0;
  done_ = false;

  shield_y_ = config_.height - 3;
  shield_x_.clear();
  shield_hp_.clear();
  for (std::size_t i = 0; i < config_.shield_count; ++i) {
    // Evenly spread shields across the row.
    const std::size_t x =
        (config_.width * (i + 1)) / (config_.shield_count + 1);
    shield_x_.push_back(x);
    shield_hp_.push_back(config_.shield_hp);
  }
  return render();
}

bool MiniInvaders::alien_at(std::ptrdiff_t x, std::ptrdiff_t y, std::size_t& r,
                            std::size_t& c) const {
  for (std::size_t rr = 0; rr < config_.alien_rows; ++rr) {
    if (alien_y(rr) != y) continue;
    for (std::size_t cc = 0; cc < config_.alien_cols; ++cc) {
      if (!alive_[rr * config_.alien_cols + cc]) continue;
      if (alien_x(cc) == x) {
        r = rr;
        c = cc;
        return true;
      }
    }
  }
  return false;
}

void MiniInvaders::march_aliens() {
  // Find the live extent of the wave.
  std::ptrdiff_t min_x = static_cast<std::ptrdiff_t>(config_.width);
  std::ptrdiff_t max_x = -1;
  for (std::size_t c = 0; c < config_.alien_cols; ++c) {
    bool column_alive = false;
    for (std::size_t r = 0; r < config_.alien_rows; ++r)
      if (alive_[r * config_.alien_cols + c]) column_alive = true;
    if (!column_alive) continue;
    min_x = std::min(min_x, alien_x(c));
    max_x = std::max(max_x, alien_x(c));
  }
  if (max_x < 0) return;  // no aliens left

  const auto width = static_cast<std::ptrdiff_t>(config_.width);
  if ((march_dir_ > 0 && max_x + 1 >= width - 1) ||
      (march_dir_ < 0 && min_x - 1 <= 0)) {
    march_dir_ = -march_dir_;
    ++wave_y_;
  } else {
    wave_x_ += march_dir_;
  }
}

StepResult MiniInvaders::step(std::size_t action) {
  if (done_)
    throw std::logic_error(
        "MiniInvaders::step: episode finished; call reset()");
  if (action >= action_count())
    throw std::logic_error("MiniInvaders::step: invalid action");

  double reward = 0.0;

  // Player movement / firing.
  if (action == 1 && player_x_ > 0) --player_x_;
  if (action == 2 && player_x_ + 1 < config_.width) ++player_x_;
  if (action == 3 && !bullet_active_) {
    bullet_active_ = true;
    bullet_x_ = static_cast<std::ptrdiff_t>(player_x_);
    bullet_y_ = static_cast<std::ptrdiff_t>(config_.height) - 2;
  }

  // Bullet flight (2 px/step keeps rallies quick on a 16-row field).
  if (bullet_active_) {
    for (int sub = 0; sub < 2 && bullet_active_; ++sub) {
      --bullet_y_;
      if (bullet_y_ < 0) {
        bullet_active_ = false;
        break;
      }
      // Shield absorbs friendly fire too.
      for (std::size_t i = 0; i < shield_x_.size(); ++i) {
        if (shield_hp_[i] > 0 &&
            bullet_y_ == static_cast<std::ptrdiff_t>(shield_y_) &&
            bullet_x_ == static_cast<std::ptrdiff_t>(shield_x_[i])) {
          --shield_hp_[i];
          bullet_active_ = false;
        }
      }
      if (!bullet_active_) break;
      std::size_t r, c;
      if (alien_at(bullet_x_, bullet_y_, r, c)) {
        alive_[r * config_.alien_cols + c] = false;
        bullet_active_ = false;
        reward += 1.0;
      }
    }
  }

  // Alien march; the cadence quickens as the wave thins out.
  const std::size_t total = config_.alien_rows * config_.alien_cols;
  const std::size_t alive_now = aliens_alive();
  const std::size_t interval = std::max<std::size_t>(
      1, config_.march_interval * std::max<std::size_t>(alive_now, 1) / total);
  if (++since_march_ >= interval) {
    since_march_ = 0;
    march_aliens();
  }

  // Random (seeded) bombing from a living alien.
  if (alive_now > 0 &&
      rng_.bernoulli(1.0 / static_cast<double>(config_.bomb_interval))) {
    std::vector<std::size_t> shooters;
    for (std::size_t c = 0; c < config_.alien_cols; ++c) {
      // The lowest living alien in each column may shoot.
      for (std::size_t r = config_.alien_rows; r-- > 0;) {
        if (alive_[r * config_.alien_cols + c]) {
          shooters.push_back(r * config_.alien_cols + c);
          break;
        }
      }
    }
    if (!shooters.empty()) {
      std::size_t pick;
      if (rng_.bernoulli(config_.aimed_bomb_fraction)) {
        // Aimed bomb: the living column closest to the player shoots.
        pick = shooters[0];
        std::ptrdiff_t best_dist = std::numeric_limits<std::ptrdiff_t>::max();
        for (std::size_t s : shooters) {
          const std::size_t c = s % config_.alien_cols;
          const std::ptrdiff_t dist =
              std::abs(alien_x(c) - static_cast<std::ptrdiff_t>(player_x_));
          if (dist < best_dist) {
            best_dist = dist;
            pick = s;
          }
        }
      } else {
        pick = shooters[rng_.uniform_int(shooters.size())];
      }
      const std::size_t r = pick / config_.alien_cols;
      const std::size_t c = pick % config_.alien_cols;
      bombs_.push_back({alien_x(c), alien_y(r) + 1});
    }
  }

  // Bomb flight.
  bool player_hit = false;
  for (auto& bomb : bombs_) {
    ++bomb.y;
    for (std::size_t i = 0; i < shield_x_.size(); ++i) {
      if (shield_hp_[i] > 0 &&
          bomb.y == static_cast<std::ptrdiff_t>(shield_y_) &&
          bomb.x == static_cast<std::ptrdiff_t>(shield_x_[i])) {
        --shield_hp_[i];
        bomb.y = static_cast<std::ptrdiff_t>(config_.height);  // consume bomb
      }
    }
    if (bomb.y == static_cast<std::ptrdiff_t>(config_.height) - 1 &&
        bomb.x == static_cast<std::ptrdiff_t>(player_x_))
      player_hit = true;
  }
  std::erase_if(bombs_, [&](const Bomb& b) {
    return b.y >= static_cast<std::ptrdiff_t>(config_.height);
  });

  // Danger shaping: standing under an incoming bomb is immediately bad.
  if (config_.danger_shaping > 0.0) {
    for (const auto& bomb : bombs_) {
      if (bomb.x == static_cast<std::ptrdiff_t>(player_x_) &&
          bomb.y >= static_cast<std::ptrdiff_t>(config_.height) - 5)
        reward -= config_.danger_shaping;
    }
  }

  ++steps_;
  const bool cleared = aliens_alive() == 0;
  bool invaded = false;
  for (std::size_t r = 0; r < config_.alien_rows; ++r)
    for (std::size_t c = 0; c < config_.alien_cols; ++c)
      if (alive_[r * config_.alien_cols + c] &&
          alien_y(r) >= static_cast<std::ptrdiff_t>(shield_y_))
        invaded = true;
  if (cleared) reward += config_.clear_bonus;
  if (player_hit) reward -= config_.death_penalty;
  done_ = cleared || invaded || player_hit || steps_ >= config_.max_steps;

  StepResult result;
  result.observation = render();
  result.reward = reward;
  result.done = done_;
  return result;
}

nn::Tensor MiniInvaders::render() const {
  const std::size_t w = config_.width, h = config_.height;
  nn::Tensor frame({1, h, w});
  auto put = [&](std::ptrdiff_t x, std::ptrdiff_t y, float shade) {
    if (x < 0 || y < 0 || x >= static_cast<std::ptrdiff_t>(w) ||
        y >= static_cast<std::ptrdiff_t>(h))
      return;
    float& px = frame[static_cast<std::size_t>(y) * w +
                      static_cast<std::size_t>(x)];
    px = std::max(px, shade);
  };
  for (std::size_t r = 0; r < config_.alien_rows; ++r)
    for (std::size_t c = 0; c < config_.alien_cols; ++c)
      if (alive_[r * config_.alien_cols + c])
        put(alien_x(c), alien_y(r), kAlienShade);
  for (std::size_t i = 0; i < shield_x_.size(); ++i)
    if (shield_hp_[i] > 0)
      put(static_cast<std::ptrdiff_t>(shield_x_[i]),
          static_cast<std::ptrdiff_t>(shield_y_),
          kShieldShade *
              static_cast<float>(shield_hp_[i]) /
              static_cast<float>(config_.shield_hp) * 0.5f +
              kShieldShade * 0.5f);
  put(static_cast<std::ptrdiff_t>(player_x_),
      static_cast<std::ptrdiff_t>(h) - 1, kPlayerShade);
  if (bullet_active_) put(bullet_x_, bullet_y_, kBulletShade);
  for (const auto& bomb : bombs_) put(bomb.x, bomb.y, kBombShade);
  return frame;
}

}  // namespace rlattack::env
