// Layer abstraction: forward caches whatever the matching backward needs;
// backward accumulates parameter gradients and returns the gradient with
// respect to the layer input, and backward_input returns that same input
// gradient without touching any parameter gradient (what FGSM/PGD need:
// they differentiate a frozen network with respect to the *input
// observation* only).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "rlattack/nn/tensor.hpp"
#include "rlattack/util/rng.hpp"

namespace rlattack::nn {

/// Non-owning view of one parameter tensor and its gradient accumulator.
/// Lifetime: valid as long as the owning layer is alive and not moved.
struct Param {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;  ///< diagnostic name, e.g. "dense0.weight"
};

/// Base class for all differentiable layers.
///
/// Two backward entry points, each called at most once per `forward` with a
/// gradient tensor whose shape equals that forward's output, both returning
/// d loss / d input:
///  - `backward` (training) also *accumulates* (+=) parameter gradients so
///    minibatch loops can sum; callers reset them via `zero_grad()`
///    (usually through the optimizer).
///  - `backward_input` (attack crafting) returns exactly the tensor
///    `backward` would and never reads or writes a parameter gradient.
///    A layer with parameters overrides it with its input-gradient half and
///    implements `backward` as that half plus the parameter half, so the
///    input-gradient arithmetic exists once. Parameter-free layers inherit
///    the default, which forwards to `backward`; checked builds assert that
///    the layer has no parameters before taking it.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output for `input` and caches activations needed by
  /// `backward`.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Propagates `grad_output` (d loss / d output) to the input, accumulating
  /// parameter gradients along the way. Returns d loss / d input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Propagates `grad_output` to the input only: returns what `backward`
  /// returns, leaving every parameter gradient untouched.
  virtual Tensor backward_input(const Tensor& grad_output);

  /// Views of every learnable parameter (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// Human-readable layer name for diagnostics.
  virtual std::string name() const = 0;

  /// Switches between training and evaluation behaviour. Only layers with
  /// mode-dependent behaviour (NoisyDense) override this.
  virtual void set_training(bool training) { (void)training; }

  /// Re-randomises any internal noise (NoisyDense). No-op by default.
  virtual void resample_noise(util::Rng& rng) { (void)rng; }

  /// Zeroes all parameter gradients.
  void zero_grad() {
    for (Param& p : params()) p.grad->zero();
  }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Copies parameter values from `src` into `dst`. Both must expose the same
/// number of parameters with identical shapes (i.e. be built by the same
/// factory). Used for DQN target-network sync.
void copy_parameters(Layer& dst, Layer& src);

/// Polyak/soft update: dst <- (1 - tau) * dst + tau * src.
void soft_update_parameters(Layer& dst, Layer& src, float tau);

/// Total learnable scalar count.
std::size_t parameter_count(Layer& layer);

}  // namespace rlattack::nn
