// The sequence-to-sequence approximator of Section 4.3 / Figure 1.
//
//   A^f_t = f(A_{t-1}, S_{t-1}, s_t)
//
// Three input heads digest (a) the action history A_{t-1} (one-hot, LSTM
// path), (b) the observation history S_{t-1} (per-frame conv features for
// image games, then an LSTM path), and (c) the current observation s_t
// (conv/dense path). The three embeddings are summed, the sum is duplicated
// m times along a new temporal axis, and a recurrent decoder emits logits
// for each of the m future actions. (The paper describes the post-head
// blocks as "duplicate m times, aggregate by summation, feed into another
// fully-connected layer"; an identical per-step FC on identical inputs
// would collapse all m predictions, so the decoder here is the canonical
// RepeatVector -> LSTM -> per-step Dense seq2seq decoder, recorded as a
// reproduction decision in DESIGN.md.)
//
// backward() exposes the gradient with respect to *every* input —
// in particular d loss / d s_t, which is exactly what FGSM/PGD need and
// what stock adversarial libraries lacked (the paper had to extend
// Cleverhans for multi-input sequence models; this model supports it
// natively).
#pragma once

#include <cstdint>

#include "rlattack/nn/optimizer.hpp"
#include "rlattack/nn/sequential.hpp"

namespace rlattack::seq2seq {

struct Seq2SeqConfig {
  std::size_t input_steps = 10;   ///< n — history length
  std::size_t output_steps = 1;   ///< m — 1 ("action") or 10 ("Seq")
  std::size_t actions = 2;        ///< A — victim action-space size
  /// Per-step observation shape: {4} for CartPole, {1, H, W} for the image
  /// games (the attacker sees raw frames; stacking happens agent-side).
  std::vector<std::size_t> frame_shape = {4};
  std::size_t embed = 64;        ///< shared embedding width E
  std::size_t lstm_hidden = 48;  ///< hidden width of the head LSTMs
  /// Luong-style attention decoder (extension): instead of pooling the
  /// observation history into one embedding, the decoder attends over the
  /// per-step encoder states of S_{t-1} at every output position. The
  /// ablation bench compares both decoders.
  bool use_attention = false;

  bool is_image() const noexcept { return frame_shape.size() == 3; }
  std::size_t frame_size() const noexcept {
    std::size_t n = 1;
    for (std::size_t d : frame_shape) n *= d;
    return n;
  }
};

class Seq2SeqModel;

/// Snapshot of everything the model computes from the *fixed* craft inputs
/// (A_{t-1}, S_{t-1}) of one craft: the attack loop of Section 4.4 perturbs
/// only the current observation s_t, so an iterative craft encodes its
/// temporal context once (Seq2SeqModel::encode_history_batch) and replays
/// only the s_t-dependent tail per query (forward_cached_batch /
/// backward_to_current_batch). One encoding describes one history row. It
/// is valid only for the model instance that produced it and must outlive
/// any tail call that uses it (the model keeps a pointer, not a copy).
struct HistoryEncoding {
  const Seq2SeqModel* owner = nullptr;  ///< producing model (stale check)
  std::size_t input_steps = 0;          ///< n at encode time
  bool attention = false;               ///< which field set below is live
  // Pooling decoder: summed action-head + obs-head embeddings.
  nn::Tensor history_embedding;  ///< [1, E]
  // Attention decoder: the obs history enters per-step via attention, so
  // the encoder states and their key projection K = E W_a^T are cached
  // alongside the action embedding.
  nn::Tensor action_embedding;  ///< [1, E]
  nn::Tensor encoder;           ///< [1, n, H]
  nn::Tensor keys;              ///< [1, n, E]

  bool valid() const noexcept { return owner != nullptr; }
};

/// The Luong "general" attention of the attention decoder, as free functions
/// over given tensors: the model calls them, and tests compare them with a
/// scalar reference (tests/attention_reference.hpp). Shapes: encoder states
/// E [B, n, H], score projection W_a [E, H], keys K [B, n, E], decoder
/// states D [B, m, E], weights alpha [B, m, n], concat rows
/// [D_t ; c_t] [B, m, E + H].
namespace attention {

/// K = E W_a^T, one GEMM over the flattened [B*n, H] encoder states.
nn::Tensor project_keys(const nn::Tensor& encoder, const nn::Tensor& w);

/// Key-projection backward: grad_w += gk^T E and grad_encoder += gk W_a.
void project_keys_backward(const nn::Tensor& grad_keys,
                           const nn::Tensor& encoder, const nn::Tensor& w,
                           nn::Tensor& grad_w, nn::Tensor& grad_encoder);

/// Scores D_t . K_i softmaxed over i into `alpha`; returns the concat rows
/// [D_t ; c_t] with contexts c_t = sum_i alpha_i E_i.
nn::Tensor mix_forward(const nn::Tensor& decoder, const nn::Tensor& encoder,
                       const nn::Tensor& keys, nn::Tensor& alpha);

/// Mix backward: returns d loss / d D. With non-null `grad_encoder` /
/// `grad_keys` it also accumulates the history-facing gradients; the
/// truncated craft backward passes nullptr and skips that branch.
nn::Tensor mix_backward(const nn::Tensor& grad_concat,
                        const nn::Tensor& decoder, const nn::Tensor& encoder,
                        const nn::Tensor& keys, const nn::Tensor& alpha,
                        nn::Tensor* grad_encoder, nn::Tensor* grad_keys);

}  // namespace attention

class Seq2SeqModel {
 public:
  Seq2SeqModel(Seq2SeqConfig config, std::uint64_t seed);

  /// Inputs:
  ///   action_history [B, n, A]  one-hot A_{t-1}
  ///   obs_history    [B, n, F]  flattened frames S_{t-1}
  ///   current_obs    [B, F]     flattened frame s_t
  /// Output: logits [B, m, A].
  nn::Tensor forward(const nn::Tensor& action_history,
                     const nn::Tensor& obs_history,
                     const nn::Tensor& current_obs);

  struct InputGrads {
    nn::Tensor action_history;  ///< [B, n, A]
    nn::Tensor obs_history;     ///< [B, n, F]
    nn::Tensor current_obs;     ///< [B, F] — the attack surface
  };

  /// Backpropagates d loss / d logits, accumulating parameter gradients and
  /// returning input gradients. Call at most once per forward.
  InputGrads backward(const nn::Tensor& grad_logits);

  // --- craft path (Section 4.4 attack loop) ---
  //
  // Every craft query evaluates only the s_t-dependent tail over a history
  // encoding built once per craft. N queries, from one craft or from
  // concurrent crafts, share one tail evaluation: their s_t rows are packed
  // into a single [N, F] matrix so the current-obs head, decoder and output
  // layers run as shared GEMMs. Every layer on the tail treats batch rows
  // independently and the GEMM kernels fix each row's K-accumulation order
  // regardless of M, so row r of a batched result is bit-identical to the
  // full forward / backward(g).current_obs on that row alone —
  // tests/seq2seq_batch_test.cpp pins this across decoders, observation
  // kinds, batch sizes, encoding reuse and SIMD kernels. forward/backward
  // stay the training path and the reference.

  /// Runs the history heads once over N packed histories ([N, n, A] /
  /// [N, n, F]) — action head + observation head (pooling decoder) or action
  /// head + observation encoder + key projection (attention decoder) — and
  /// splits the result into N one-row encodings. The n-step LSTM stacks
  /// over the histories are never re-entered by the tail calls.
  std::vector<HistoryEncoding> encode_history_batch(
      const nn::Tensor& action_histories, const nn::Tensor& obs_histories);

  /// Batched tail forward — current-observation head, RepeatVector, decoder
  /// and attention mixing: caches[r] pairs with row r of `current_obs`
  /// [N, F]. Gathers the per-encoding history state (and, for the attention
  /// decoder, the per-encoding encoder/key blocks around the per-row
  /// score/context GEMMs), evaluates the tail once, and returns logits
  /// [N, m, A]. Each cache must outlive the call and any
  /// backward_to_current_batch that follows.
  nn::Tensor forward_cached_batch(
      const std::vector<const HistoryEncoding*>& caches,
      const nn::Tensor& current_obs);

  /// Truncated backward for the batched tail: [N, m, A] loss gradients in,
  /// [N, F] current-observation gradients out, stopping at the encoding
  /// boundary — the history heads see no backward work. Zero gradient rows
  /// yield zero output rows without disturbing their neighbours. The tail
  /// runs each layer's backward_input, so no parameter gradient is read or
  /// written (the attacker differentiates a frozen approximator). Call at
  /// most once per forward_cached_batch.
  nn::Tensor backward_to_current_batch(const nn::Tensor& grad_logits);

  /// All learnable parameters across heads and decoder. Built lazily on
  /// first call and cached (topology is fixed after construction); the
  /// model must not be moved afterwards — the Param views alias member
  /// tensors (same contract as nn::Optimizer).
  const std::vector<nn::Param>& params();

  void zero_grad();

  const Seq2SeqConfig& config() const noexcept { return config_; }

 private:
  nn::Tensor forward_attention(const nn::Tensor& action_history,
                               const nn::Tensor& obs_history,
                               const nn::Tensor& current_obs);
  InputGrads backward_attention(const nn::Tensor& grad_logits);
  /// Checked-build (util::kCheckedBuild) NaN/Inf audit of the gradients
  /// returned to the attack layer; no-op condition in release builds.
  void check_input_grads(const InputGrads& grads) const;

  // Shared building blocks of the full and cached paths (the two must stay
  // bit-identical, so they run the exact same code):
  /// [B, E] -> [B, m, E] RepeatVector (Figure 1).
  nn::Tensor repeat_embedding(const nn::Tensor& embedding) const;
  /// [B, m, E] gradient -> [B, E]: RepeatVector backward (sum over copies).
  nn::Tensor sum_over_steps(const nn::Tensor& grad_repeated) const;
  /// The packed history pass behind encode_history_batch: one encoding
  /// whose tensors hold all B rows.
  HistoryEncoding encode_history(const nn::Tensor& action_history,
                                 const nn::Tensor& obs_history);
  /// RepeatVector + decoder LSTM + attention mixing + output dense; reads
  /// `encoder`/`keys` (members on the full path, gathered encodings on the
  /// craft path) and fills cached_decoder_/cached_alpha_.
  nn::Tensor decode_attention(const nn::Tensor& embedding,
                              const nn::Tensor& encoder,
                              const nn::Tensor& keys);

  Seq2SeqConfig config_;
  nn::Sequential action_head_;   // [B, n, A] -> [B, E]
  nn::Sequential obs_head_;      // [B, n, F] -> [B, E]  (pooling decoder)
  nn::Sequential current_head_;  // [B, F]    -> [B, E]
  nn::Sequential decoder_;       // [B, m, E] -> [B, m, A] (pooling decoder)
  std::size_t cached_batch_ = 0;
  /// N of the last forward_cached_batch; 0 when the last forward was the
  /// full path. Gates backward_to_current_batch, and the full backward
  /// refuses to run after a tail forward.
  std::size_t active_batch_ = 0;
  /// Per-row encoder/key blocks gathered by the last attention-decoder
  /// forward_cached_batch; read by backward_to_current_batch.
  nn::Tensor batch_encoder_;  // [N, n, H]
  nn::Tensor batch_keys_;     // [N, n, E]
  /// Lazily built parameter views (see params()).
  std::vector<nn::Param> params_cache_;

  // --- attention-decoder variant ---
  nn::Sequential obs_encoder_;    // [B, n, F] -> [B, n, H] encoder states
  nn::Sequential decoder_lstm_;   // [B, m, E] -> [B, m, E] decoder states
  nn::Sequential output_dense_;   // [B, m, E + H] -> [B, m, A]
  nn::Tensor attn_w_;             // [E, H] Luong "general" score projection
  nn::Tensor attn_w_grad_;
  // forward caches for the attention backward pass
  nn::Tensor cached_encoder_;   // [B, n, H]
  nn::Tensor cached_keys_;      // [B, n, E]
  nn::Tensor cached_decoder_;   // [B, m, E]
  nn::Tensor cached_alpha_;     // [B, m, n]
};

/// Head presets matching Table 2's per-game configurations, scaled to this
/// reproduction's frame sizes (DESIGN.md).
Seq2SeqConfig make_cartpole_seq2seq_config(std::size_t input_steps,
                                           std::size_t output_steps);
Seq2SeqConfig make_atari_seq2seq_config(std::vector<std::size_t> frame_shape,
                                        std::size_t actions,
                                        std::size_t input_steps,
                                        std::size_t output_steps);

}  // namespace rlattack::seq2seq
