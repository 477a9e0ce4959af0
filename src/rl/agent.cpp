#include "rlattack/rl/agent.hpp"

#include <algorithm>
#include <stdexcept>

namespace rlattack::rl {

std::vector<std::size_t> Agent::act_batch(const nn::Tensor& observations,
                                          bool explore) {
  // Defining per-row loop: slices each row back out and defers to act().
  // Subclasses override with a single [B, ...] forward; this fallback keeps
  // any override trivially comparable against the contract.
  if (observations.rank() < 2)
    throw std::logic_error("Agent::act_batch: expected a [B, S...] stack, got " +
                           observations.shape_string());
  const std::size_t batch = observations.dim(0);
  const auto& shape = observations.shape();
  std::vector<std::size_t> item_shape(shape.begin() + 1, shape.end());
  const std::size_t stride = nn::shape_numel(item_shape);
  nn::Tensor row(item_shape);
  std::vector<std::size_t> actions(batch);
  const float* src = observations.raw();
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy(src + b * stride, src + (b + 1) * stride, row.raw());
    actions[b] = act(row, explore);
  }
  return actions;
}

void Agent::reset_from(const Agent& src) {
  if (algorithm() != src.algorithm() || action_count() != src.action_count())
    throw std::logic_error("Agent::reset_from: incompatible source agent (" +
                           src.algorithm() + " vs " + algorithm() + ")");
  // network() is non-const only because Layer parameter access is; the
  // source is not mutated.
  auto& mutable_src = const_cast<Agent&>(src);  // NOLINT
  nn::copy_parameters(network(), mutable_src.network());
}

Algorithm parse_algorithm(const std::string& name) {
  if (name == "dqn") return Algorithm::kDqn;
  if (name == "a2c") return Algorithm::kA2c;
  if (name == "rainbow") return Algorithm::kRainbow;
  throw std::invalid_argument("unknown algorithm: " + name);
}

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kDqn: return "dqn";
    case Algorithm::kA2c: return "a2c";
    case Algorithm::kRainbow: return "rainbow";
  }
  throw std::logic_error("algorithm_name: invalid enum");
}

}  // namespace rlattack::rl
