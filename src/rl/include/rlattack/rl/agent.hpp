// Agent abstraction shared by DQN, A2C and Rainbow.
//
// The attack pipeline only ever uses `act` in evaluation mode — the paper's
// explicit assumption is that the victim runs with exploration turned off
// and no further training (Section 4.2). Training-time hooks live here too
// so one trainer loop drives all three algorithms.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rlattack/nn/layer.hpp"
#include "rlattack/nn/tensor.hpp"

namespace rlattack::rl {

class Agent {
 public:
  virtual ~Agent() = default;
  Agent() = default;
  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Picks an action for `observation`. With `explore` true the agent uses
  /// its training-time behaviour policy (epsilon-greedy, sampling, noisy
  /// nets); with false it acts greedily/deterministically.
  virtual std::size_t act(const nn::Tensor& observation, bool explore) = 0;

  /// Batched variant of `act`: `observations` is a [B, S...] stack and the
  /// result holds one action per row. Contract (the episode-batched
  /// evaluation substrate depends on it): for any stack of observations
  /// o_1..o_B, `act_batch(stack(o_1..o_B), explore)` returns exactly
  /// `{act(o_1, explore), ..., act(o_B, explore)}` — bit-identical actions
  /// AND an identical RNG stream afterwards, so batching is invisible to
  /// callers regardless of how rows are grouped across flushes. The base
  /// implementation is the defining per-row loop; subclasses override it
  /// with one [B, ...] forward where they can keep the contract.
  virtual std::vector<std::size_t> act_batch(const nn::Tensor& observations,
                                             bool explore);

  /// Called at the start of each training episode.
  virtual void begin_episode() {}

  /// Feeds one environment transition back for learning. `observation` is
  /// s_t as seen by the agent (post frame-stacking), `next_observation` is
  /// s_{t+1}.
  virtual void learn(const nn::Tensor& observation, std::size_t action,
                     double reward, const nn::Tensor& next_observation,
                     bool done) = 0;

  /// Algorithm identifier: "dqn", "a2c" or "rainbow".
  virtual std::string algorithm() const = 0;

  /// The underlying network holding all learnable parameters, for
  /// checkpoint save/load.
  virtual nn::Layer& network() = 0;

  /// Number of discrete actions this agent selects among.
  virtual std::size_t action_count() const = 0;

  /// Deep copy: a fresh agent with identical architecture and network
  /// parameters whose greedy policy (`act(obs, false)`) is bit-identical to
  /// this agent's, with forward caches and layer scratch of its own.
  /// Transient training state (replay buffers, optimizer moments, pending
  /// rollouts) is NOT carried over — a clone is an independent evaluation
  /// copy, not a way to resume training.
  virtual std::unique_ptr<Agent> clone() = 0;

  /// In-place re-synchronisation of an existing evaluation clone with
  /// `src`: copies the live network parameters (and whatever extra state
  /// `clone()` would carry, e.g. the Q target network) without allocating a
  /// new agent. Callers that keep one evaluation agent across runs use
  /// this instead of reconstructing its networks. Throws std::logic_error
  /// if `src` has a different algorithm or action count. The base
  /// implementation copies `network()` parameters only; subclasses
  /// override to carry their extra clone()-visible state.
  virtual void reset_from(const Agent& src);
};

using AgentPtr = std::unique_ptr<Agent>;

/// Algorithm identifiers matching the paper's three victim trainers.
enum class Algorithm { kDqn, kA2c, kRainbow };

/// Parses "dqn" / "a2c" / "rainbow"; throws std::invalid_argument otherwise.
Algorithm parse_algorithm(const std::string& name);
std::string algorithm_name(Algorithm a);

}  // namespace rlattack::rl
