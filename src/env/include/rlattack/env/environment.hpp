// Environment abstraction: discrete-action, episodic, fully deterministic
// given a seed. Matches the POMDP framing of Section 4.1 of the paper — the
// environment emits an observation s_t, the agent replies with an action
// a_t, the environment feeds back a reward r_t.
//
// Attacks never mutate the environment; the attack harness perturbs the
// *observation stream* between the environment and the victim agent
// (Figure 2), so this interface stays attack-agnostic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rlattack/nn/tensor.hpp"

namespace rlattack::env {

/// Inclusive element-wise bounds of valid observation values; used by PGD
/// to project perturbed observations back into the valid input domain.
struct ObservationBounds {
  float low;
  float high;
};

struct StepResult {
  nn::Tensor observation;  ///< s_{t+1}
  double reward = 0.0;     ///< r_t
  bool done = false;       ///< episode terminated after this step
};

class Environment {
 public:
  virtual ~Environment() = default;
  Environment() = default;
  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  /// Re-seeds the environment's random stream. Takes effect at next reset.
  virtual void seed(std::uint64_t seed) = 0;

  /// Starts a new episode; returns the initial observation s_0.
  virtual nn::Tensor reset() = 0;

  /// Advances one step with the given action index. Calling step on a
  /// finished episode throws std::logic_error.
  virtual StepResult step(std::size_t action) = 0;

  /// Number of discrete actions.
  virtual std::size_t action_count() const = 0;

  /// Shape of a single observation (no batch dim), e.g. {4} or {1, 16, 16}.
  virtual std::vector<std::size_t> observation_shape() const = 0;

  virtual ObservationBounds observation_bounds() const = 0;

  virtual std::string name() const = 0;

  /// Flat observation element count.
  std::size_t observation_size() const {
    std::size_t n = 1;
    for (std::size_t d : observation_shape()) n *= d;
    return n;
  }
};

using EnvPtr = std::unique_ptr<Environment>;

/// One (s_t, a_t, r_t, done) record of an episode trace.
struct Transition {
  nn::Tensor observation;  ///< s_t — what the agent saw before acting
  std::size_t action = 0;  ///< a_t
  double reward = 0.0;     ///< r_t
  bool done = false;
};

/// A full episode trace: the sequence E of Algorithm 1.
struct Episode {
  std::vector<Transition> steps;
  double total_reward() const {
    double r = 0.0;
    for (const auto& t : steps) r += t.reward;
    return r;
  }
};

}  // namespace rlattack::env
