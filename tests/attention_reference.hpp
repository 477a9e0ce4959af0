// Scalar reference of the attention decoder's GEMM formulation
// (seq2seq::attention in rlattack/seq2seq/model.hpp): the same Luong
// "general" attention as plain per-(b, t) loops. Each loop keeps the GEMM's
// accumulation tree — a fresh accumulator per output element over the
// contraction, added to the destination once, no skip on exact-zero terms —
// so under the scalar GEMM kernel the two agree bit for bit
// (Seq2SeqAttentionGemm in seq2seq_test.cpp). No production path calls it.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "rlattack/nn/tensor.hpp"

namespace rlattack::testing::attention_ref {

/// K[b, i, :] = W_a E[b, i, :].
inline nn::Tensor project_keys(const nn::Tensor& encoder,
                               const nn::Tensor& w) {
  const std::size_t b_count = encoder.dim(0), n = encoder.dim(1);
  const std::size_t e = w.dim(0), h = w.dim(1);
  nn::Tensor keys({b_count, n, e});
  for (std::size_t b = 0; b < b_count; ++b)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = 0; k < e; ++k) {
        float acc = 0.0f;
        for (std::size_t hh = 0; hh < h; ++hh)
          acc += w[k * h + hh] * encoder.at3(b, i, hh);
        keys.at3(b, i, k) = acc;
      }
  return keys;
}

/// grad_w += gk^T E and grad_encoder += gk W_a.
inline void project_keys_backward(const nn::Tensor& grad_keys,
                                  const nn::Tensor& encoder,
                                  const nn::Tensor& w, nn::Tensor& grad_w,
                                  nn::Tensor& grad_encoder) {
  const std::size_t b_count = encoder.dim(0), n = encoder.dim(1);
  const std::size_t e = w.dim(0), h = w.dim(1);
  for (std::size_t k = 0; k < e; ++k)
    for (std::size_t hh = 0; hh < h; ++hh) {
      float acc = 0.0f;
      for (std::size_t b = 0; b < b_count; ++b)
        for (std::size_t i = 0; i < n; ++i)
          acc += grad_keys.at3(b, i, k) * encoder.at3(b, i, hh);
      grad_w[k * h + hh] += acc;
    }
  for (std::size_t b = 0; b < b_count; ++b)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t hh = 0; hh < h; ++hh) {
        float acc = 0.0f;
        for (std::size_t k = 0; k < e; ++k)
          acc += grad_keys.at3(b, i, k) * w[k * h + hh];
        grad_encoder.at3(b, i, hh) += acc;
      }
}

/// alpha[b, t, :] = softmax_i(D_t . K_i); returns the rows [D_t ; c_t].
inline nn::Tensor mix_forward(const nn::Tensor& decoder,
                              const nn::Tensor& encoder,
                              const nn::Tensor& keys, nn::Tensor& alpha) {
  const std::size_t b_count = decoder.dim(0), m = decoder.dim(1);
  const std::size_t e = decoder.dim(2);
  const std::size_t n = encoder.dim(1), h = encoder.dim(2);
  alpha = nn::Tensor({b_count, m, n});
  nn::Tensor concat({b_count, m, e + h});
  std::vector<float> scores(n);
  for (std::size_t b = 0; b < b_count; ++b) {
    for (std::size_t t = 0; t < m; ++t) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        float s = 0.0f;
        for (std::size_t k = 0; k < e; ++k)
          s += decoder.at3(b, t, k) * keys.at3(b, i, k);
        scores[i] = s;
        mx = std::max(mx, s);
      }
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        scores[i] = std::exp(scores[i] - mx);
        sum += scores[i];
      }
      for (std::size_t i = 0; i < n; ++i) alpha.at3(b, t, i) = scores[i] / sum;
      for (std::size_t k = 0; k < e; ++k)
        concat[(b * m + t) * (e + h) + k] = decoder.at3(b, t, k);
      for (std::size_t hh = 0; hh < h; ++hh) {
        float c = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
          c += alpha.at3(b, t, i) * encoder.at3(b, i, hh);
        concat[(b * m + t) * (e + h) + e + hh] = c;
      }
    }
  }
  return concat;
}

/// Returns d loss / d D; non-null grad_encoder / grad_keys accumulate the
/// history-facing gradients.
inline nn::Tensor mix_backward(const nn::Tensor& grad_concat,
                               const nn::Tensor& decoder,
                               const nn::Tensor& encoder,
                               const nn::Tensor& keys,
                               const nn::Tensor& alpha,
                               nn::Tensor* grad_encoder,
                               nn::Tensor* grad_keys) {
  const std::size_t b_count = decoder.dim(0), m = decoder.dim(1);
  const std::size_t e = decoder.dim(2);
  const std::size_t n = encoder.dim(1), h = encoder.dim(2);
  const std::size_t eh = e + h;
  nn::Tensor grad_decoder({b_count, m, e});
  std::vector<float> dalpha(n);
  for (std::size_t b = 0; b < b_count; ++b) {
    for (std::size_t t = 0; t < m; ++t) {
      const float* gz = grad_concat.raw() + (b * m + t) * eh;
      for (std::size_t k = 0; k < e; ++k) grad_decoder.at3(b, t, k) = gz[k];
      const float* gc = gz + e;  // d loss / d context [H]
      for (std::size_t i = 0; i < n; ++i) {
        float da = 0.0f;
        for (std::size_t hh = 0; hh < h; ++hh) {
          da += gc[hh] * encoder.at3(b, i, hh);
          if (grad_encoder != nullptr)
            grad_encoder->at3(b, i, hh) += alpha.at3(b, t, i) * gc[hh];
        }
        dalpha[i] = da;
      }
      // Softmax backward: ds_i = alpha_i (dalpha_i - sum_j alpha_j dalpha_j).
      float weighted = 0.0f;
      for (std::size_t i = 0; i < n; ++i)
        weighted += alpha.at3(b, t, i) * dalpha[i];
      for (std::size_t i = 0; i < n; ++i)
        dalpha[i] = alpha.at3(b, t, i) * (dalpha[i] - weighted);
      // score = D_t . K_i backward.
      for (std::size_t k = 0; k < e; ++k) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < n; ++i) acc += dalpha[i] * keys.at3(b, i, k);
        grad_decoder.at3(b, t, k) += acc;
      }
      if (grad_keys != nullptr)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t k = 0; k < e; ++k)
            grad_keys->at3(b, i, k) += dalpha[i] * decoder.at3(b, t, k);
    }
  }
  return grad_decoder;
}

}  // namespace rlattack::testing::attention_ref
