#include "rlattack/nn/lstm.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "rlattack/nn/init.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace rlattack::nn {

namespace {
inline float sigmoid(float x) noexcept { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size,
           bool return_sequences, util::Rng& rng)
    : input_(input_size),
      hidden_(hidden_size),
      return_sequences_(return_sequences),
      w_({4 * hidden_size, input_size}),
      u_({4 * hidden_size, hidden_size}),
      b_({4 * hidden_size}),
      gw_({4 * hidden_size, input_size}),
      gu_({4 * hidden_size, hidden_size}),
      gb_({4 * hidden_size}) {
  if (input_ == 0 || hidden_ == 0)
    throw std::logic_error("Lstm: zero-sized dimension");
  xavier_uniform(w_, input_, hidden_, rng);
  xavier_uniform(u_, hidden_, hidden_, rng);
  // Forget-gate bias at 1.0 eases gradient flow early in training
  // (Jozefowicz et al. 2015); other gate biases stay at zero.
  for (std::size_t i = hidden_; i < 2 * hidden_; ++i) b_[i] = 1.0f;
}

Tensor Lstm::forward(const Tensor& input) {
  if (input.rank() != 3 || input.dim(2) != input_)
    throw std::logic_error("Lstm::forward: expected [B, T, " +
                           std::to_string(input_) + "], got " +
                           input.shape_string());
  cached_input_ = input;
  const std::size_t batch = input.dim(0), steps = input.dim(1);
  gates_.assign(steps, Tensor({batch, 4 * hidden_}));
  cells_.assign(steps, Tensor({batch, hidden_}));
  tanh_cells_.assign(steps, Tensor({batch, hidden_}));
  hiddens_.assign(steps, Tensor({batch, hidden_}));

  const std::size_t h4 = 4 * hidden_;
  // Input contributions for every gate and timestep in one fused GEMM:
  // [B*T, F] x [F, 4H] — the [B, T, F] layout flattens row-exactly.
  if (xw_buf_.rank() != 2 || xw_buf_.dim(0) != batch * steps ||
      xw_buf_.dim(1) != h4)
    xw_buf_ = Tensor({batch * steps, h4});
  kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kYes, batch * steps, h4,
                 input_, input.raw(), input_, w_.raw(), input_, xw_buf_.raw(),
                 h4, /*accumulate=*/false);

  // U^T laid out once per call: every step's recurrent GEMM then reads the
  // row-major [H, 4H] scratch in place instead of re-transposing U.
  if (steps > 1) {
    if (ut_buf_.rank() != 2) ut_buf_ = Tensor({hidden_, h4});
    kernels::transpose(h4, hidden_, u_.raw(), hidden_, ut_buf_.raw(), h4);
  }

  auto& pool = util::ThreadPool::global();
  for (std::size_t t = 0; t < steps; ++t) {
    Tensor& gates = gates_[t];
    // gates = xw_t + b, then gates += h_{t-1} U^T (one fused 4H-wide GEMM).
    for (std::size_t bi = 0; bi < batch; ++bi) {
      const float* xw = xw_buf_.raw() + (bi * steps + t) * h4;
      float* gr = gates.raw() + bi * h4;
      for (std::size_t j = 0; j < h4; ++j) gr[j] = xw[j] + b_[j];
    }
    if (t > 0)
      kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kNo, batch, h4,
                     hidden_, hiddens_[t - 1].raw(), hidden_, ut_buf_.raw(),
                     h4, gates.raw(), h4, /*accumulate=*/true);
    // Activations and state update, batch rows in parallel.
    Tensor& c = cells_[t];
    Tensor& tc = tanh_cells_[t];
    Tensor& h = hiddens_[t];
    const Tensor* c_prev = t > 0 ? &cells_[t - 1] : nullptr;
    pool.parallel_for(batch, /*grain=*/8, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t bi = b0; bi < b1; ++bi) {
        float* gr = gates.raw() + bi * h4;
        const float* cp = c_prev ? c_prev->raw() + bi * hidden_ : nullptr;
        float* cr = c.raw() + bi * hidden_;
        float* tcr = tc.raw() + bi * hidden_;
        float* hr = h.raw() + bi * hidden_;
        for (std::size_t k = 0; k < hidden_; ++k) {
          const float ig = sigmoid(gr[k]);
          const float fg = sigmoid(gr[hidden_ + k]);
          const float gg = std::tanh(gr[2 * hidden_ + k]);
          const float og = sigmoid(gr[3 * hidden_ + k]);
          gr[k] = ig;
          gr[hidden_ + k] = fg;
          gr[2 * hidden_ + k] = gg;
          gr[3 * hidden_ + k] = og;
          cr[k] = fg * (cp ? cp[k] : 0.0f) + ig * gg;
          tcr[k] = std::tanh(cr[k]);
          hr[k] = og * tcr[k];
        }
      }
    });
  }

  if (return_sequences_) {
    Tensor out({batch, steps, hidden_});
    for (std::size_t t = 0; t < steps; ++t)
      for (std::size_t bi = 0; bi < batch; ++bi)
        std::memcpy(&out.at3(bi, t, 0), hiddens_[t].raw() + bi * hidden_,
                    hidden_ * sizeof(float));
    return out;
  }
  return hiddens_.back();
}

Tensor Lstm::backward_input(const Tensor& grad_output) {
  const std::size_t batch = cached_input_.dim(0),
                    steps = cached_input_.dim(1);
  const std::size_t h4 = 4 * hidden_;

  // Per-step output gradient extractor.
  auto grad_at = [&](std::size_t t, std::size_t bi, std::size_t k) -> float {
    if (return_sequences_) return grad_output.at3(bi, t, k);
    return t + 1 == steps ? grad_output.at2(bi, k) : 0.0f;
  };
  if (return_sequences_) {
    if (grad_output.rank() != 3 || grad_output.dim(0) != batch ||
        grad_output.dim(1) != steps || grad_output.dim(2) != hidden_)
      throw std::logic_error("Lstm::backward: gradient shape mismatch");
  } else {
    if (grad_output.rank() != 2 || grad_output.dim(0) != batch ||
        grad_output.dim(1) != hidden_)
      throw std::logic_error("Lstm::backward: gradient shape mismatch");
  }

  // Pre-activation gradients for all steps, stored in the same [B*T, 4H]
  // row order as the input so grad_input (and, in backward, dW) becomes one
  // big GEMM after the recurrent sweep.
  if (dpre_buf_.rank() != 2 || dpre_buf_.dim(0) != batch * steps ||
      dpre_buf_.dim(1) != h4)
    dpre_buf_ = Tensor({batch * steps, h4});
  Tensor dh_next({batch, hidden_});
  Tensor dc_next({batch, hidden_});
  const std::size_t row_stride = steps * h4;  // between batch rows at fixed t

  auto& pool = util::ThreadPool::global();
  for (std::size_t t = steps; t-- > 0;) {
    const Tensor& gates = gates_[t];
    const Tensor& tc = tanh_cells_[t];
    // c_{t-1}: zero tensor at t == 0.
    const Tensor* c_prev = t > 0 ? &cells_[t - 1] : nullptr;
    float* dpre_t = dpre_buf_.raw() + t * h4;  // row bi at bi * row_stride

    pool.parallel_for(batch, /*grain=*/8, [&](std::size_t b0, std::size_t b1) {
      for (std::size_t bi = b0; bi < b1; ++bi) {
        const float* gr = gates.raw() + bi * h4;
        const float* tcr = tc.raw() + bi * hidden_;
        float* dpr = dpre_t + bi * row_stride;
        float* dhn = dh_next.raw() + bi * hidden_;
        float* dcn = dc_next.raw() + bi * hidden_;
        for (std::size_t k = 0; k < hidden_; ++k) {
          const float ig = gr[k], fg = gr[hidden_ + k],
                      gg = gr[2 * hidden_ + k], og = gr[3 * hidden_ + k];
          const float dh = grad_at(t, bi, k) + dhn[k];
          const float dc = dcn[k] + dh * og * (1.0f - tcr[k] * tcr[k]);
          const float cp = c_prev ? c_prev->at2(bi, k) : 0.0f;
          dpr[k] = dc * gg * ig * (1.0f - ig);                    // d pre_i
          dpr[hidden_ + k] = dc * cp * fg * (1.0f - fg);          // d pre_f
          dpr[2 * hidden_ + k] = dc * ig * (1.0f - gg * gg);      // d pre_g
          dpr[3 * hidden_ + k] = dh * tcr[k] * og * (1.0f - og);  // d pre_o
          dcn[k] = dc * fg;  // flows to c_{t-1}
        }
      }
    });

    // dh_{t-1} = dpre_t U  (overwrites dh_next for the next iteration;
    // nothing reads dh_{-1}).
    if (t > 0)
      kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kNo, batch, hidden_,
                     h4, dpre_t, row_stride, u_.raw(), hidden_, dh_next.raw(),
                     hidden_, /*accumulate=*/false);
  }

  // grad_input = dpre W, fused over all timesteps.
  Tensor grad_input({batch, steps, input_});
  kernels::sgemm(kernels::Trans::kNo, kernels::Trans::kNo, batch * steps,
                 input_, h4, dpre_buf_.raw(), h4, w_.raw(), input_,
                 grad_input.raw(), input_, /*accumulate=*/false);
  return grad_input;
}

Tensor Lstm::backward(const Tensor& grad_output) {
  Tensor grad_input = backward_input(grad_output);  // fills dpre_buf_
  const std::size_t batch = cached_input_.dim(0),
                    steps = cached_input_.dim(1);
  const std::size_t h4 = 4 * hidden_;
  const std::size_t row_stride = steps * h4;
  // dU += dpre_t^T h_{t-1}, in the sweep's (descending t) order.
  for (std::size_t t = steps; t-- > 1;)
    kernels::sgemm(kernels::Trans::kYes, kernels::Trans::kNo, h4, hidden_,
                   batch, dpre_buf_.raw() + t * h4, row_stride,
                   hiddens_[t - 1].raw(), hidden_, gu_.raw(), hidden_,
                   /*accumulate=*/true);
  // dW += dpre^T x and db += column sums of dpre, over all timesteps.
  kernels::sgemm(kernels::Trans::kYes, kernels::Trans::kNo, h4, input_,
                 batch * steps, dpre_buf_.raw(), h4, cached_input_.raw(),
                 input_, gw_.raw(), input_, /*accumulate=*/true);
  kernels::col_sums_accumulate(batch * steps, h4, dpre_buf_.raw(), h4,
                               gb_.raw());
  return grad_input;
}

std::vector<Param> Lstm::params() {
  return {{&w_, &gw_, "lstm.w"},
          {&u_, &gu_, "lstm.u"},
          {&b_, &gb_, "lstm.b"}};
}

}  // namespace rlattack::nn
