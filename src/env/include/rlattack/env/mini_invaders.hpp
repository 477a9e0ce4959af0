// MiniInvaders: the Atari Space Invaders substitute (see DESIGN.md).
//
// A grid of aliens marches across a small raster, descending at each wall
// hit and accelerating as it thins out. The player ship slides along the
// bottom row and fires one bullet at a time; aliens drop bombs at random
// (seeded) intervals, and destructible shields absorb fire from both sides.
// Compared with MiniPong the interaction is longer-horizon and more
// stochastic, preserving the property the paper observes: Space Invaders is
// harder to approximate with a seq2seq model and needs larger perturbation
// budgets to attack.
//
// Reward: +1 per alien destroyed (clearing the wave ends the episode with a
// +5 bonus). The episode ends when the player is hit, aliens reach the
// shield row, the wave is cleared, or `max_steps` elapse.
#pragma once

#include "rlattack/env/environment.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::env {

class MiniInvaders final : public Environment {
 public:
  struct Config {
    std::size_t width = 16;
    std::size_t height = 16;
    std::size_t alien_rows = 3;
    std::size_t alien_cols = 5;
    std::size_t alien_spacing = 2;   ///< horizontal pixels per alien slot
    std::size_t march_interval = 6;  ///< steps between marches at full wave
    std::size_t bomb_interval = 14;  ///< mean steps between alien bombs
    /// Fraction of bombs dropped by the living column nearest the player
    /// (the rest come from a random column). Punishes stationary play so
    /// "park and fire" is not a dominant strategy.
    double aimed_bomb_fraction = 0.35;
    std::size_t shield_count = 3;
    std::size_t shield_hp = 3;
    std::size_t max_steps = 600;
    double clear_bonus = 5.0;
    /// Negative reward on player death; gives the value function a crisp
    /// dodge signal (dying early already forfeits future kills, but that
    /// signal alone is too diffuse for CPU-scale training budgets).
    double death_penalty = 2.0;
    /// Dense shaping: small negative reward while a bomb is in the
    /// player's column within a few rows overhead. Gives CPU-scale
    /// on-policy learners an immediate dodge gradient (mirrors MiniPong's
    /// tracking shaping; orders of magnitude below the kill rewards).
    double danger_shaping = 0.05;
  };

  MiniInvaders();
  explicit MiniInvaders(Config config, std::uint64_t seed = 1);

  void seed(std::uint64_t seed) override;
  nn::Tensor reset() override;
  StepResult step(std::size_t action) override;
  std::size_t action_count() const override { return 4; }  // noop/left/right/fire
  std::vector<std::size_t> observation_shape() const override {
    return {1, config_.height, config_.width};
  }
  ObservationBounds observation_bounds() const override {
    return {0.0f, 1.0f};
  }
  std::string name() const override { return "mini_invaders"; }

  const Config& config() const noexcept { return config_; }
  std::size_t aliens_alive() const;

 private:
  nn::Tensor render() const;
  /// Screen x of alien column c; may be negative mid-march at the left edge.
  std::ptrdiff_t alien_x(std::size_t c) const;
  std::ptrdiff_t alien_y(std::size_t r) const;
  void march_aliens();
  bool alien_at(std::ptrdiff_t x, std::ptrdiff_t y, std::size_t& r,
                std::size_t& c) const;

  Config config_;
  util::Rng rng_;

  std::vector<bool> alive_;        // [rows * cols]
  std::ptrdiff_t wave_x_ = 0;      // left edge of the alien block
  std::ptrdiff_t wave_y_ = 0;      // top row of the alien block
  int march_dir_ = 1;
  std::size_t since_march_ = 0;
  std::size_t player_x_ = 0;
  bool bullet_active_ = false;
  std::ptrdiff_t bullet_x_ = 0, bullet_y_ = 0;
  struct Bomb {
    std::ptrdiff_t x, y;
  };
  std::vector<Bomb> bombs_;
  std::vector<std::size_t> shield_hp_;  // one entry per shield block pixel-column
  std::vector<std::size_t> shield_x_;
  std::size_t shield_y_ = 0;
  std::size_t steps_ = 0;
  bool done_ = true;
};

}  // namespace rlattack::env
