// LSTM layer with full backpropagation-through-time.
//
// Used by every head of the seq2seq approximator (Figure 1 of the paper) to
// digest the observation and action history sequences. Stateless across
// calls: each forward consumes a whole [B, T, F] sequence starting from zero
// hidden/cell state, which matches how the rollout FIFO presents histories.
#pragma once

#include "rlattack/nn/layer.hpp"

namespace rlattack::nn {

class Lstm final : public Layer {
 public:
  /// If `return_sequences` the output is [B, T, H] (for stacking LSTMs);
  /// otherwise only the last hidden state [B, H] is returned.
  Lstm(std::size_t input_size, std::size_t hidden_size, bool return_sequences,
       util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  /// backward_input runs the recurrent sweep and the input-gradient GEMM;
  /// backward adds the dU/dW GEMMs and the bias sums over its result.
  Tensor backward(const Tensor& grad_output) override;
  Tensor backward_input(const Tensor& grad_output) override;
  std::vector<Param> params() override;
  std::string name() const override { return "Lstm"; }

  std::size_t hidden_size() const noexcept { return hidden_; }

 private:
  std::size_t input_;
  std::size_t hidden_;
  bool return_sequences_;

  // Gate order within the 4H dimension: input, forget, cell(g), output.
  // The [4H x F] / [4H x H] packing fuses all four gate matmuls into one
  // kernels::sgemm per timestep (plus one [B*T, F] x [F, 4H] GEMM for the
  // input contributions of every step at once).
  Tensor w_;   // [4H, F]   input-to-hidden
  Tensor u_;   // [4H, H]   hidden-to-hidden
  Tensor b_;   // [4H]      bias (forget-gate slice initialised to 1)
  Tensor gw_, gu_, gb_;

  // Per-timestep caches for BPTT; index t in [0, T).
  Tensor cached_input_;            // [B, T, F]
  std::vector<Tensor> gates_;      // each [B, 4H], post-activation
  std::vector<Tensor> cells_;      // each [B, H], c_t
  std::vector<Tensor> tanh_cells_; // each [B, H], tanh(c_t)
  std::vector<Tensor> hiddens_;    // each [B, H], h_t
  // GEMM scratch reused across calls (reallocated only on shape change).
  Tensor xw_buf_;    // [B*T, 4H]  x W^T for every timestep
  Tensor ut_buf_;    // [H, 4H]    U^T, rewritten by every forward with T > 1
  Tensor dpre_buf_;  // [B*T, 4H]  pre-activation grads for every timestep,
                     //            filled by backward_input, read by backward
};

}  // namespace rlattack::nn
