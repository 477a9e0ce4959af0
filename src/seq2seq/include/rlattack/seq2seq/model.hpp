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

/// Whether the attention decoder runs its batched-GEMM formulation (default)
/// or the retained scalar per-(b, t) loops. The two are bit-identical under
/// the scalar GEMM kernel (tests/seq2seq_test.cpp pins this); the switch is
/// the debugging escape hatch, initialised from RLATTACK_ATTN_GEMM
/// ("0" disables, anything else — including unset — enables).
bool attention_gemm_enabled() noexcept;
void set_attention_gemm_enabled(bool enabled) noexcept;

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
/// (A_{t-1}, S_{t-1}): the attack loop of Section 4.4 perturbs only the
/// current observation s_t, so an iterative craft encodes the temporal
/// context once (Seq2SeqModel::encode_history) and replays only the
/// s_t-dependent tail per iteration (forward_cached /
/// backward_to_current). Valid only for the model instance that produced
/// it and must outlive any forward_cached/backward_to_current call that
/// uses it (the model keeps a pointer, not a copy).
struct HistoryEncoding {
  const Seq2SeqModel* owner = nullptr;  ///< producing model (stale check)
  std::size_t batch = 0;                ///< B of the encoded histories
  std::size_t input_steps = 0;          ///< n at encode time
  bool attention = false;               ///< which field set below is live
  // Pooling decoder: summed action-head + obs-head embeddings.
  nn::Tensor history_embedding;  ///< [B, E]
  // Attention decoder: the obs history enters per-step via attention, so
  // the encoder states and their key projection K = E W_a^T are cached
  // alongside the action embedding.
  nn::Tensor action_embedding;  ///< [B, E]
  nn::Tensor encoder;           ///< [B, n, H]
  nn::Tensor keys;              ///< [B, n, E]

  bool valid() const noexcept { return owner != nullptr; }
};

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

  // --- craft-context fast path (Section 4.4 attack loop) ---
  //
  // forward() == forward_cached(encode_history(A, S), s_t) bit-for-bit, and
  // backward_to_current returns exactly backward(g).current_obs — enforced
  // by tests/seq2seq_test.cpp. forward/backward stay the training path and
  // the parity oracle; the attacks run on the cached path.

  /// Runs the history heads once: action head + observation head (pooling
  /// decoder) or action head + observation encoder + key projection
  /// (attention decoder). The n-step LSTM stacks over the histories are
  /// never re-entered by forward_cached/backward_to_current.
  HistoryEncoding encode_history(const nn::Tensor& action_history,
                                 const nn::Tensor& obs_history);

  /// Evaluates only the s_t-dependent tail — current-observation head,
  /// RepeatVector, decoder and attention mixing — on top of `cache`.
  /// Returns logits [B, m, A] bit-identical to the full forward. The cache
  /// must outlive the call and any backward_to_current that follows.
  nn::Tensor forward_cached(const HistoryEncoding& cache,
                            const nn::Tensor& current_obs);

  /// Truncated backward for the cached path: propagates d loss / d logits
  /// to the current observation only, stopping at the cache boundary — the
  /// history heads see no backward work. The tail runs each layer's
  /// backward_input, so no parameter gradient is read or written (the
  /// attacker differentiates a frozen approximator). Call at most once per
  /// forward_cached. Returns [B, F], bit-identical to
  /// backward(grad_logits).current_obs.
  nn::Tensor backward_to_current(const nn::Tensor& grad_logits);

  // --- batched craft substrate (multi-session tail evaluation) ---
  //
  // N independent batch-1 crafts share one tail evaluation: their s_t rows
  // are packed into a single [N, F] matrix so the current-obs head, decoder
  // and output layers run as shared GEMMs with m = N instead of N GEMMs of
  // m = 1. Every layer on the tail treats batch rows independently and the
  // GEMM kernels fix each row's K-accumulation order regardless of M, so
  // row r of the batched result is bit-identical to a single-row
  // forward_cached(*caches[r], s_r) — tests/seq2seq_batch_test.cpp pins
  // this across decoders, observation kinds, batch sizes, thread counts and
  // SIMD kernels.

  /// Runs the history heads once over N packed histories ([N, n, A] /
  /// [N, n, F]) and splits the result into N batch-1 encodings, each
  /// bit-identical to encode_history on that row alone.
  std::vector<HistoryEncoding> encode_history_batch(
      const nn::Tensor& action_histories, const nn::Tensor& obs_histories);

  /// Batched tail forward: caches[r] (batch 1 each) pairs with row r of
  /// `current_obs` [N, F]. Gathers the per-encoding history state (and, for
  /// the attention decoder, the per-encoding encoder/key blocks around the
  /// per-row score/context GEMMs), evaluates the tail once, and returns
  /// logits [N, m, A]. Each cache must outlive the call and any
  /// backward_to_current_batch that follows.
  nn::Tensor forward_cached_batch(
      const std::vector<const HistoryEncoding*>& caches,
      const nn::Tensor& current_obs);

  /// Truncated backward for the batched tail: [N, m, A] loss gradients in,
  /// [N, F] current-observation gradients out. Row r is bit-identical to a
  /// single-row backward_to_current of row r's gradient (zero gradient rows
  /// yield zero output rows without disturbing their neighbours). Like
  /// backward_to_current it leaves every parameter gradient untouched. Call
  /// at most once per forward_cached_batch.
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
  /// Keys K[b, i, :] = W_a * E[b, i, :] (Luong "general" score).
  nn::Tensor project_keys(const nn::Tensor& encoder) const;
  /// RepeatVector + decoder LSTM + attention mixing + output dense; reads
  /// `encoder`/`keys` (members on the full path, HistoryEncoding fields on
  /// the cached path) and fills cached_decoder_/cached_alpha_.
  nn::Tensor decode_attention(const nn::Tensor& embedding,
                              const nn::Tensor& encoder,
                              const nn::Tensor& keys);
  /// Attention-mixing backward: returns d loss / d decoder states. With
  /// non-null `grad_encoder`/`grad_keys` also accumulates the
  /// history-facing gradients; the cached path passes nullptr and the
  /// whole history branch is skipped.
  nn::Tensor attention_mix_backward(const nn::Tensor& grad_concat,
                                    const nn::Tensor& encoder,
                                    const nn::Tensor& keys,
                                    nn::Tensor* grad_encoder,
                                    nn::Tensor* grad_keys);

  Seq2SeqConfig config_;
  nn::Sequential action_head_;   // [B, n, A] -> [B, E]
  nn::Sequential obs_head_;      // [B, n, F] -> [B, E]  (pooling decoder)
  nn::Sequential current_head_;  // [B, F]    -> [B, E]
  nn::Sequential decoder_;       // [B, m, E] -> [B, m, A] (pooling decoder)
  std::size_t cached_batch_ = 0;
  /// Encoding used by the last forward_cached; read by backward_to_current,
  /// reset to nullptr by the full forward. Not owned.
  const HistoryEncoding* active_cache_ = nullptr;
  /// N of the last forward_cached_batch; 0 when the last forward was not a
  /// batched tail. Gates backward_to_current_batch the way active_cache_
  /// gates backward_to_current.
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
  // Reusable scratch for the attention inner loops (scores / dalpha are
  // per-(b, t) temporaries; keeping them as members avoids a heap
  // allocation per output position). Plain members are safe because only
  // one thread is ever inside a model at a time: a model shared by
  // concurrent episodes through the BatchedCraftPlanner rendezvous is only
  // entered by the flushing thread under the planner lock.
  std::vector<float> attn_scores_scratch_;
  std::vector<float> attn_dalpha_scratch_;
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
