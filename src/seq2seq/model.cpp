#include "rlattack/seq2seq/model.hpp"

#include <cstring>
#include <limits>
#include <stdexcept>

#include "rlattack/obs/metrics.hpp"
#include "rlattack/util/check.hpp"

#include "rlattack/nn/activations.hpp"
#include "rlattack/nn/conv2d.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/init.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/nn/lstm.hpp"

namespace rlattack::seq2seq {

namespace {

using nn::kernels::sgemm;
using nn::kernels::Trans;

/// Per-frame conv feature extractor for image heads; returns the feature
/// width. Scaled-down analogue of Table 2's conv stacks (16x16 frames vs
/// the paper's 84x84; DESIGN.md records the scaling).
std::size_t append_frame_conv(nn::Sequential& net,
                              const std::vector<std::size_t>& chw,
                              std::size_t out_width, util::Rng& rng) {
  const std::size_t c = chw[0], h = chw[1], w = chw[2];
  auto conv1 = std::make_unique<nn::Conv2D>(c, 8, 3, 2, 1, rng);
  const std::size_t h1 = conv1->out_extent(h), w1 = conv1->out_extent(w);
  auto conv2 = std::make_unique<nn::Conv2D>(8, 16, 3, 2, 1, rng);
  const std::size_t h2 = conv2->out_extent(h1), w2 = conv2->out_extent(w1);
  net.add(std::move(conv1));
  net.emplace<nn::ReLU>();
  net.add(std::move(conv2));
  net.emplace<nn::ReLU>();
  net.emplace<nn::Flatten>();
  net.emplace<nn::Dense>(16 * h2 * w2, out_width, rng, true);
  net.emplace<nn::ReLU>();
  return out_width;
}

}  // namespace

Seq2SeqModel::Seq2SeqModel(Seq2SeqConfig config, std::uint64_t seed)
    : config_(config) {
  if (config_.actions == 0) throw std::logic_error("Seq2SeqModel: no actions");
  if (config_.input_steps == 0 || config_.output_steps == 0)
    throw std::logic_error("Seq2SeqModel: zero sequence length");
  util::Rng rng(seed);
  const std::size_t lstm_h = config_.lstm_hidden;
  const std::size_t embed = config_.embed;

  // Action head (Table 2: "1-2 LSTM, 1 Dense"): one-hot action sequence.
  action_head_.emplace<nn::Lstm>(config_.actions, lstm_h, true, rng)
      .emplace<nn::Lstm>(lstm_h, lstm_h, false, rng)
      .emplace<nn::Dense>(lstm_h, embed, rng);

  // Observation head.
  if (config_.is_image()) {
    // Per-frame conv features, applied across time, then the LSTM stack
    // ("6 Conv, 3 LSTM, 2 Dense" scaled to small frames).
    auto frame_net = std::make_unique<nn::Sequential>();
    util::Rng frame_rng = rng.split();
    const std::size_t feat =
        append_frame_conv(*frame_net, config_.frame_shape, 64, frame_rng);
    obs_head_.emplace<nn::TimeDistributed>(std::move(frame_net),
                                           config_.frame_shape);
    obs_head_.emplace<nn::Lstm>(feat, lstm_h, true, rng)
        .emplace<nn::Lstm>(lstm_h, lstm_h, false, rng)
        .emplace<nn::Dense>(lstm_h, embed, rng);
  } else {
    // Vector observations ("2 LSTM, 1 Dense").
    obs_head_.emplace<nn::Lstm>(config_.frame_size(), lstm_h, true, rng)
        .emplace<nn::Lstm>(lstm_h, lstm_h, false, rng)
        .emplace<nn::Dense>(lstm_h, embed, rng);
  }

  // Current-observation head ("1 Dense" / "5 Conv, 2 Dense" scaled).
  if (config_.is_image()) {
    current_head_.emplace<nn::Reshape>(config_.frame_shape);
    util::Rng cur_rng = rng.split();
    append_frame_conv(current_head_, config_.frame_shape, 64, cur_rng);
    current_head_.emplace<nn::Dense>(64, embed, cur_rng);
  } else {
    current_head_.emplace<nn::Dense>(config_.frame_size(), embed, rng);
  }

  // Decoder: RepeatVector happens in forward; then LSTM + per-step Dense.
  decoder_.emplace<nn::Lstm>(embed, embed, true, rng);
  auto step_dense = std::make_unique<nn::Sequential>();
  step_dense->emplace<nn::Dense>(embed, config_.actions, rng);
  decoder_.emplace<nn::TimeDistributed>(std::move(step_dense),
                                        std::vector<std::size_t>{embed});

  if (config_.use_attention) {
    // Encoder over the observation history (sequence outputs kept).
    if (config_.is_image()) {
      auto frame_net = std::make_unique<nn::Sequential>();
      util::Rng enc_rng = rng.split();
      const std::size_t feat =
          append_frame_conv(*frame_net, config_.frame_shape, 64, enc_rng);
      obs_encoder_.emplace<nn::TimeDistributed>(std::move(frame_net),
                                                config_.frame_shape);
      obs_encoder_.emplace<nn::Lstm>(feat, lstm_h, true, rng);
    } else {
      obs_encoder_.emplace<nn::Lstm>(config_.frame_size(), lstm_h, true, rng);
    }
    decoder_lstm_.emplace<nn::Lstm>(embed, embed, true, rng);
    auto out_net = std::make_unique<nn::Sequential>();
    out_net->emplace<nn::Dense>(embed + lstm_h, config_.actions, rng);
    output_dense_.emplace<nn::TimeDistributed>(
        std::move(out_net), std::vector<std::size_t>{embed + lstm_h});
    attn_w_ = nn::Tensor({embed, lstm_h});
    attn_w_grad_ = nn::Tensor({embed, lstm_h});
    xavier_uniform(attn_w_, lstm_h, embed, rng);
  }
}

nn::Tensor Seq2SeqModel::forward(const nn::Tensor& action_history,
                                 const nn::Tensor& obs_history,
                                 const nn::Tensor& current_obs) {
  static rlattack::obs::SpanStat& span_stat =
      rlattack::obs::MetricsRegistry::global().span("seq2seq.forward");
  rlattack::obs::Span span(span_stat);
  const std::size_t n = config_.input_steps;
  const std::size_t frame = config_.frame_size();
  if (action_history.rank() != 3 || action_history.dim(1) != n ||
      action_history.dim(2) != config_.actions)
    throw std::logic_error("Seq2SeqModel::forward: bad action history " +
                           action_history.shape_string());
  if (obs_history.rank() != 3 || obs_history.dim(1) != n ||
      obs_history.dim(2) != frame)
    throw std::logic_error("Seq2SeqModel::forward: bad observation history " +
                           obs_history.shape_string());
  if (current_obs.rank() != 2 || current_obs.dim(1) != frame ||
      current_obs.dim(0) != action_history.dim(0))
    throw std::logic_error("Seq2SeqModel::forward: bad current observation " +
                           current_obs.shape_string());
  cached_batch_ = action_history.dim(0);
  active_batch_ = 0;  // this forward pairs with the full backward
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(util::all_finite(action_history.data()),
                   "Seq2SeqModel::forward: non-finite action history");
    RLATTACK_CHECK(util::all_finite(obs_history.data()),
                   "Seq2SeqModel::forward: non-finite observation history");
    RLATTACK_CHECK(util::all_finite(current_obs.data()),
                   "Seq2SeqModel::forward: non-finite current observation");
  }
  if (config_.use_attention)
    return forward_attention(action_history, obs_history, current_obs);

  nn::Tensor embedding = action_head_.forward(action_history);  // [B, E]
  embedding += obs_head_.forward(obs_history);
  embedding += current_head_.forward(current_obs);

  return decoder_.forward(repeat_embedding(embedding));  // [B, m, A]
}

Seq2SeqModel::InputGrads Seq2SeqModel::backward(const nn::Tensor& grad_logits) {
  static rlattack::obs::SpanStat& span_stat =
      rlattack::obs::MetricsRegistry::global().span("seq2seq.backward");
  rlattack::obs::Span span(span_stat);
  const std::size_t m = config_.output_steps;
  if (grad_logits.rank() != 3 || grad_logits.dim(0) != cached_batch_ ||
      grad_logits.dim(1) != m || grad_logits.dim(2) != config_.actions)
    throw std::logic_error("Seq2SeqModel::backward: bad gradient shape " +
                           grad_logits.shape_string());
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(util::all_finite(grad_logits.data()),
                   "Seq2SeqModel::backward: non-finite logits gradient");
    RLATTACK_CHECK(active_batch_ == 0,
                   "Seq2SeqModel::backward: last forward was "
                   "forward_cached_batch; use backward_to_current_batch");
  }
  if (config_.use_attention) {
    InputGrads grads = backward_attention(grad_logits);
    if constexpr (util::kCheckedBuild) check_input_grads(grads);
    return grads;
  }

  nn::Tensor grad_repeated = decoder_.backward(grad_logits);  // [B, m, E]
  // Duplication backward: sum gradients across the m copies.
  nn::Tensor grad_embedding = sum_over_steps(grad_repeated);

  // Summation aggregation backward: each head receives the same gradient.
  InputGrads grads;
  grads.action_history = action_head_.backward(grad_embedding);
  grads.obs_history = obs_head_.backward(grad_embedding);
  grads.current_obs = current_head_.backward(grad_embedding);
  if constexpr (util::kCheckedBuild) check_input_grads(grads);
  return grads;
}

void Seq2SeqModel::check_input_grads(const InputGrads& grads) const {
  // The FGSM/PGD/CW gradient path terminates here: a NaN or Inf that leaks
  // into any input gradient silently corrupts every subsequent attack step.
  RLATTACK_CHECK(util::all_finite(grads.action_history.data()),
                 "Seq2SeqModel::backward: non-finite action-history gradient");
  RLATTACK_CHECK(util::all_finite(grads.obs_history.data()),
                 "Seq2SeqModel::backward: non-finite obs-history gradient");
  RLATTACK_CHECK(util::all_finite(grads.current_obs.data()),
                 "Seq2SeqModel::backward: non-finite current-obs gradient");
  if (config_.use_attention) {
    RLATTACK_CHECK(util::all_finite(attn_w_grad_.data()),
                   "Seq2SeqModel::backward: non-finite attention-weight grad");
  }
}

nn::Tensor Seq2SeqModel::repeat_embedding(const nn::Tensor& embedding) const {
  // RepeatVector: duplicate the summed embedding m times (Figure 1).
  const std::size_t b_count = embedding.dim(0);
  const std::size_t m = config_.output_steps;
  const std::size_t e = config_.embed;
  nn::Tensor repeated({b_count, m, e});
  for (std::size_t b = 0; b < b_count; ++b)
    for (std::size_t t = 0; t < m; ++t)
      for (std::size_t k = 0; k < e; ++k)
        repeated.at3(b, t, k) = embedding.at2(b, k);
  return repeated;
}

nn::Tensor Seq2SeqModel::sum_over_steps(const nn::Tensor& grad_repeated) const {
  const std::size_t b_count = grad_repeated.dim(0);
  const std::size_t m = config_.output_steps;
  const std::size_t e = config_.embed;
  nn::Tensor grad_embedding({b_count, e});
  for (std::size_t b = 0; b < b_count; ++b)
    for (std::size_t t = 0; t < m; ++t)
      for (std::size_t k = 0; k < e; ++k)
        grad_embedding.at2(b, k) += grad_repeated.at3(b, t, k);
  return grad_embedding;
}

namespace attention {

nn::Tensor project_keys(const nn::Tensor& encoder, const nn::Tensor& w) {
  const std::size_t rows = encoder.dim(0) * encoder.dim(1);
  const std::size_t e = w.dim(0), h = w.dim(1);
  nn::Tensor keys({encoder.dim(0), encoder.dim(1), e});
  sgemm(Trans::kNo, Trans::kYes, rows, e, h, encoder.raw(), h, w.raw(), h,
        keys.raw(), e, false);
  return keys;
}

void project_keys_backward(const nn::Tensor& grad_keys,
                           const nn::Tensor& encoder, const nn::Tensor& w,
                           nn::Tensor& grad_w, nn::Tensor& grad_encoder) {
  // dW_a += gk^T E and ge += gk W_a over the flattened [B*n, .] views.
  const std::size_t rows = encoder.dim(0) * encoder.dim(1);
  const std::size_t e = w.dim(0), h = w.dim(1);
  sgemm(Trans::kYes, Trans::kNo, e, h, rows, grad_keys.raw(), e,
        encoder.raw(), h, grad_w.raw(), h, true);
  sgemm(Trans::kNo, Trans::kNo, rows, h, e, grad_keys.raw(), e, w.raw(), h,
        grad_encoder.raw(), h, true);
}

nn::Tensor mix_forward(const nn::Tensor& decoder, const nn::Tensor& encoder,
                       const nn::Tensor& keys, nn::Tensor& alpha) {
  const std::size_t b_count = decoder.dim(0);
  const std::size_t m = decoder.dim(1), e = decoder.dim(2);
  const std::size_t n = encoder.dim(1), h = encoder.dim(2);
  const std::size_t eh = e + h;
  alpha = nn::Tensor({b_count, m, n});
  nn::Tensor concat({b_count, m, eh});
  for (std::size_t b = 0; b < b_count; ++b) {
    const float* dec_b = decoder.raw() + b * m * e;
    const float* enc_b = encoder.raw() + b * n * h;
    const float* key_b = keys.raw() + b * n * e;
    float* alpha_b = alpha.raw() + b * m * n;
    float* concat_b = concat.raw() + b * m * eh;
    // scores[t, i] = D_t . K_i, written straight into the alpha tensor and
    // softmaxed in place per row.
    sgemm(Trans::kNo, Trans::kYes, m, n, e, dec_b, e, key_b, e, alpha_b, n,
          false);
    for (std::size_t t = 0; t < m; ++t) {
      float* row = alpha_b + t * n;
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t i = 0; i < n; ++i) mx = std::max(mx, row[i]);
      float sum = 0.0f;
      for (std::size_t i = 0; i < n; ++i) {
        row[i] = std::exp(row[i] - mx);
        sum += row[i];
      }
      for (std::size_t i = 0; i < n; ++i) row[i] /= sum;
      // Concat left half: the decoder state itself.
      std::memcpy(concat_b + t * eh, dec_b + t * e, e * sizeof(float));
    }
    // Contexts c_t = sum_i alpha_i E_i fill the right h columns of the
    // concat rows (ldc = e + h places them after each D_t).
    sgemm(Trans::kNo, Trans::kNo, m, h, n, alpha_b, n, enc_b, h,
          concat_b + e, eh, false);
  }
  return concat;
}

nn::Tensor mix_backward(const nn::Tensor& grad_concat,
                        const nn::Tensor& decoder, const nn::Tensor& encoder,
                        const nn::Tensor& keys, const nn::Tensor& alpha,
                        nn::Tensor* grad_encoder, nn::Tensor* grad_keys) {
  const std::size_t b_count = decoder.dim(0);
  const std::size_t m = decoder.dim(1), e = decoder.dim(2);
  const std::size_t n = encoder.dim(1), h = encoder.dim(2);
  const std::size_t eh = e + h;
  nn::Tensor grad_decoder({b_count, m, e});
  std::vector<float> dalpha(m * n);
  for (std::size_t b = 0; b < b_count; ++b) {
    const float* gz_b = grad_concat.raw() + b * m * eh;
    const float* gc_b = gz_b + e;  // context-grad columns, lda = e + h
    const float* enc_b = encoder.raw() + b * n * h;
    const float* key_b = keys.raw() + b * n * e;
    const float* dec_b = decoder.raw() + b * m * e;
    const float* alpha_b = alpha.raw() + b * m * n;
    float* gd_b = grad_decoder.raw() + b * m * e;
    // Direct decoder-state gradient: the left e columns of the concat grad.
    for (std::size_t t = 0; t < m; ++t)
      std::memcpy(gd_b + t * e, gz_b + t * eh, e * sizeof(float));
    // dalpha[t, i] = gc_t . E_i — strided view straight onto the context
    // columns, no copy of the concat gradient.
    sgemm(Trans::kNo, Trans::kYes, m, n, h, gc_b, eh, enc_b, h,
          dalpha.data(), n, false);
    if (grad_encoder != nullptr)  // context sum: ge += alpha^T gc
      sgemm(Trans::kYes, Trans::kNo, n, h, m, alpha_b, n, gc_b, eh,
            grad_encoder->raw() + b * n * h, h, true);
    // Softmax backward in place: ds_i = alpha_i (dalpha_i - sum_j alpha_j
    // dalpha_j); the dalpha buffer holds ds afterwards.
    for (std::size_t t = 0; t < m; ++t) {
      const float* ar = alpha_b + t * n;
      float* dr = dalpha.data() + t * n;
      float weighted = 0.0f;
      for (std::size_t i = 0; i < n; ++i) weighted += ar[i] * dr[i];
      for (std::size_t i = 0; i < n; ++i) dr[i] = ar[i] * (dr[i] - weighted);
    }
    // score = D_t . K_i backward: gd += ds K, gk += ds^T D.
    sgemm(Trans::kNo, Trans::kNo, m, e, n, dalpha.data(), n, key_b, e, gd_b,
          e, true);
    if (grad_keys != nullptr)
      sgemm(Trans::kYes, Trans::kNo, n, e, m, dalpha.data(), n, dec_b, e,
            grad_keys->raw() + b * n * e, e, true);
  }
  return grad_decoder;
}

}  // namespace attention

nn::Tensor Seq2SeqModel::decode_attention(const nn::Tensor& embedding,
                                          const nn::Tensor& encoder,
                                          const nn::Tensor& keys) {
  cached_decoder_ = decoder_lstm_.forward(repeat_embedding(embedding));
  return output_dense_.forward(
      attention::mix_forward(cached_decoder_, encoder, keys, cached_alpha_));
}

nn::Tensor Seq2SeqModel::forward_attention(const nn::Tensor& action_history,
                                           const nn::Tensor& obs_history,
                                           const nn::Tensor& current_obs) {
  // Encoder states over the observation history, and their key projection.
  cached_encoder_ = obs_encoder_.forward(obs_history);  // [B, n, H]
  cached_keys_ = attention::project_keys(cached_encoder_, attn_w_);

  // Decoder input: summed action + current-observation embeddings,
  // repeated m times (the observation history enters via attention).
  nn::Tensor embedding = action_head_.forward(action_history);
  embedding += current_head_.forward(current_obs);
  return decode_attention(embedding, cached_encoder_, cached_keys_);
}

Seq2SeqModel::InputGrads Seq2SeqModel::backward_attention(
    const nn::Tensor& grad_logits) {
  nn::Tensor grad_concat = output_dense_.backward(grad_logits);  // [B,m,E+H]

  nn::Tensor grad_encoder(cached_encoder_.shape());
  nn::Tensor grad_keys(cached_keys_.shape());
  nn::Tensor grad_decoder = attention::mix_backward(
      grad_concat, cached_decoder_, cached_encoder_, cached_keys_,
      cached_alpha_, &grad_encoder, &grad_keys);
  // K = E W_a^T: accumulate W_a grads and the encoder grad through the keys.
  attention::project_keys_backward(grad_keys, cached_encoder_, attn_w_,
                                   attn_w_grad_, grad_encoder);

  InputGrads grads;
  grads.obs_history = obs_encoder_.backward(grad_encoder);

  nn::Tensor grad_repeated = decoder_lstm_.backward(grad_decoder);
  nn::Tensor grad_embedding = sum_over_steps(grad_repeated);
  grads.action_history = action_head_.backward(grad_embedding);
  grads.current_obs = current_head_.backward(grad_embedding);
  return grads;
}

HistoryEncoding Seq2SeqModel::encode_history(const nn::Tensor& action_history,
                                             const nn::Tensor& obs_history) {
  static rlattack::obs::SpanStat& span_stat =
      rlattack::obs::MetricsRegistry::global().span("seq2seq.encode_history");
  rlattack::obs::Span span(span_stat);
  const std::size_t n = config_.input_steps;
  if (action_history.rank() != 3 || action_history.dim(1) != n ||
      action_history.dim(2) != config_.actions)
    throw std::logic_error("Seq2SeqModel::encode_history: bad action history " +
                           action_history.shape_string());
  if (obs_history.rank() != 3 || obs_history.dim(1) != n ||
      obs_history.dim(2) != config_.frame_size() ||
      obs_history.dim(0) != action_history.dim(0))
    throw std::logic_error(
        "Seq2SeqModel::encode_history: bad observation history " +
        obs_history.shape_string());
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(util::all_finite(action_history.data()),
                   "Seq2SeqModel::encode_history: non-finite action history");
    RLATTACK_CHECK(
        util::all_finite(obs_history.data()),
        "Seq2SeqModel::encode_history: non-finite observation history");
  }
  HistoryEncoding cache;
  cache.owner = this;
  cache.input_steps = n;
  cache.attention = config_.use_attention;
  if (!config_.use_attention) {
    // Same accumulation order as forward(): action embedding first, then
    // the observation embedding — (a + o) + c stays bit-identical when
    // forward_cached_batch later adds the current-observation embedding c.
    cache.history_embedding = action_head_.forward(action_history);
    cache.history_embedding += obs_head_.forward(obs_history);
  } else {
    cache.encoder = obs_encoder_.forward(obs_history);  // [B, n, H]
    cache.keys = attention::project_keys(cache.encoder, attn_w_);
    cache.action_embedding = action_head_.forward(action_history);
  }
  return cache;
}

std::vector<HistoryEncoding> Seq2SeqModel::encode_history_batch(
    const nn::Tensor& action_histories, const nn::Tensor& obs_histories) {
  // One shared pass over the packed histories; encode_history validates the
  // shapes, and every history-head layer treats its batch rows
  // independently.
  HistoryEncoding packed = encode_history(action_histories, obs_histories);
  const std::size_t rows = action_histories.dim(0);
  const std::size_t n = config_.input_steps;
  const std::size_t e = config_.embed;
  const std::size_t h = config_.lstm_hidden;
  std::vector<HistoryEncoding> out(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    HistoryEncoding& enc = out[r];
    enc.owner = this;
    enc.input_steps = n;
    enc.attention = packed.attention;
    if (!packed.attention) {
      enc.history_embedding = nn::Tensor({1, e});
      std::memcpy(enc.history_embedding.raw(),
                  packed.history_embedding.raw() + r * e, e * sizeof(float));
    } else {
      enc.action_embedding = nn::Tensor({1, e});
      std::memcpy(enc.action_embedding.raw(),
                  packed.action_embedding.raw() + r * e, e * sizeof(float));
      enc.encoder = nn::Tensor({1, n, h});
      std::memcpy(enc.encoder.raw(), packed.encoder.raw() + r * n * h,
                  n * h * sizeof(float));
      enc.keys = nn::Tensor({1, n, e});
      std::memcpy(enc.keys.raw(), packed.keys.raw() + r * n * e,
                  n * e * sizeof(float));
    }
  }
  return out;
}

nn::Tensor Seq2SeqModel::forward_cached_batch(
    const std::vector<const HistoryEncoding*>& caches,
    const nn::Tensor& current_obs) {
  static rlattack::obs::SpanStat& span_stat =
      rlattack::obs::MetricsRegistry::global().span(
          "seq2seq.forward_cached_batch");
  rlattack::obs::Span span(span_stat);
  const std::size_t rows = caches.size();
  const std::size_t n = config_.input_steps;
  const std::size_t e = config_.embed;
  const std::size_t h = config_.lstm_hidden;
  if (rows == 0)
    throw std::logic_error("Seq2SeqModel::forward_cached_batch: empty batch");
  if (current_obs.rank() != 2 || current_obs.dim(0) != rows ||
      current_obs.dim(1) != config_.frame_size())
    throw std::logic_error(
        "Seq2SeqModel::forward_cached_batch: bad current observations " +
        current_obs.shape_string());
  for (const HistoryEncoding* cache : caches) {
    if (cache == nullptr || !cache->valid())
      throw std::logic_error(
          "Seq2SeqModel::forward_cached_batch: every encoding must be a "
          "valid HistoryEncoding");
    if constexpr (util::kCheckedBuild) {
      RLATTACK_CHECK(cache->owner == this,
                     "Seq2SeqModel::forward_cached_batch: encoding from a "
                     "different model instance");
      RLATTACK_CHECK(cache->attention == config_.use_attention,
                     "Seq2SeqModel::forward_cached_batch: encoding decoder "
                     "variant does not match the model");
      RLATTACK_CHECK(cache->input_steps == n,
                     "Seq2SeqModel::forward_cached_batch: encoding "
                     "input_steps does not match the model");
    }
  }
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(util::all_finite(current_obs.data()),
                   "Seq2SeqModel::forward_cached_batch: non-finite current "
                   "observations");
  }
  cached_batch_ = rows;
  active_batch_ = rows;
  // Gather the per-encoding history state into batch rows, then add the
  // current-observation embedding: history embedding first, the same
  // per-row accumulation order as the full forward.
  nn::Tensor embedding({rows, e});
  if (!config_.use_attention) {
    for (std::size_t r = 0; r < rows; ++r)
      std::memcpy(embedding.raw() + r * e, caches[r]->history_embedding.raw(),
                  e * sizeof(float));
    embedding += current_head_.forward(current_obs);
    return decoder_.forward(repeat_embedding(embedding));  // [N, m, A]
  }
  for (std::size_t r = 0; r < rows; ++r)
    std::memcpy(embedding.raw() + r * e, caches[r]->action_embedding.raw(),
                e * sizeof(float));
  embedding += current_head_.forward(current_obs);
  // Per-encoding attention state: the score/context GEMMs inside
  // decode_attention read only row b's encoder/key block, so gathering the
  // blocks into [N, n, .] tensors reuses the full path's code bit for bit.
  batch_encoder_ = nn::Tensor({rows, n, h});
  batch_keys_ = nn::Tensor({rows, n, e});
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(batch_encoder_.raw() + r * n * h, caches[r]->encoder.raw(),
                n * h * sizeof(float));
    std::memcpy(batch_keys_.raw() + r * n * e, caches[r]->keys.raw(),
                n * e * sizeof(float));
  }
  return decode_attention(embedding, batch_encoder_, batch_keys_);
}

nn::Tensor Seq2SeqModel::backward_to_current_batch(
    const nn::Tensor& grad_logits) {
  static rlattack::obs::SpanStat& span_stat =
      rlattack::obs::MetricsRegistry::global().span(
          "seq2seq.backward_to_current_batch");
  rlattack::obs::Span span(span_stat);
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(active_batch_ > 0,
                   "Seq2SeqModel::backward_to_current_batch: no preceding "
                   "forward_cached_batch");
    RLATTACK_CHECK(util::all_finite(grad_logits.data()),
                   "Seq2SeqModel::backward_to_current_batch: non-finite "
                   "logits gradient");
  }
  if (active_batch_ == 0)
    throw std::logic_error(
        "Seq2SeqModel::backward_to_current_batch: call forward_cached_batch "
        "first");
  if (grad_logits.rank() != 3 || grad_logits.dim(0) != active_batch_ ||
      grad_logits.dim(1) != config_.output_steps ||
      grad_logits.dim(2) != config_.actions)
    throw std::logic_error(
        "Seq2SeqModel::backward_to_current_batch: bad gradient shape " +
        grad_logits.shape_string());
  active_batch_ = 0;  // one backward per forward_cached_batch
  nn::Tensor grad_current;
  if (!config_.use_attention) {
    nn::Tensor grad_repeated =
        decoder_.backward_input(grad_logits);  // [N, m, E]
    grad_current =
        current_head_.backward_input(sum_over_steps(grad_repeated));
  } else {
    nn::Tensor grad_concat = output_dense_.backward_input(grad_logits);
    // Truncate at the encoding boundary: no encoder, key or attention-weight
    // gradients — the histories are fixed for the whole craft.
    nn::Tensor grad_decoder = attention::mix_backward(
        grad_concat, cached_decoder_, batch_encoder_, batch_keys_,
        cached_alpha_, nullptr, nullptr);
    nn::Tensor grad_repeated = decoder_lstm_.backward_input(grad_decoder);
    grad_current =
        current_head_.backward_input(sum_over_steps(grad_repeated));
  }
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(util::all_finite(grad_current.data()),
                   "Seq2SeqModel::backward_to_current_batch: non-finite "
                   "current-obs gradient");
  }
  return grad_current;
}

const std::vector<nn::Param>& Seq2SeqModel::params() {
  if (!params_cache_.empty()) return params_cache_;
  // Built once: the layer topology is fixed after construction, and the
  // per-call string concatenation below would otherwise run on every
  // zero_grad().
  std::vector<nn::Param>& out = params_cache_;
  auto take = [&out](nn::Sequential& part, const std::string& prefix) {
    for (nn::Param p : part.params()) {
      p.name = prefix + "." + p.name;
      out.push_back(p);
    }
  };
  // Order matters: checkpoints store parameters positionally, so the
  // non-attention layout must stay exactly as first released.
  take(action_head_, "action_head");
  if (!config_.use_attention) {
    take(obs_head_, "obs_head");
    take(current_head_, "current_head");
    take(decoder_, "decoder");
  } else {
    take(current_head_, "current_head");
    take(obs_encoder_, "obs_encoder");
    take(decoder_lstm_, "decoder_lstm");
    take(output_dense_, "output_dense");
    out.push_back({&attn_w_, &attn_w_grad_, "attention.w"});
  }
  return params_cache_;
}

void Seq2SeqModel::zero_grad() {
  for (const nn::Param& p : params()) p.grad->zero();
}

Seq2SeqConfig make_cartpole_seq2seq_config(std::size_t input_steps,
                                           std::size_t output_steps) {
  Seq2SeqConfig c;
  c.input_steps = input_steps;
  c.output_steps = output_steps;
  c.actions = 2;
  c.frame_shape = {4};
  c.embed = 48;
  c.lstm_hidden = 32;
  return c;
}

Seq2SeqConfig make_atari_seq2seq_config(std::vector<std::size_t> frame_shape,
                                        std::size_t actions,
                                        std::size_t input_steps,
                                        std::size_t output_steps) {
  Seq2SeqConfig c;
  c.input_steps = input_steps;
  c.output_steps = output_steps;
  c.actions = actions;
  c.frame_shape = std::move(frame_shape);
  c.embed = 64;
  c.lstm_hidden = 48;
  return c;
}

}  // namespace rlattack::seq2seq
