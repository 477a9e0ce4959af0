// Bit-identity contract of the craft path, the approximator's only cached
// API: N independent (history encoding, s_t) tails packed into one
// forward_cached_batch / backward_to_current_batch must return, per row,
// EXACTLY the floats of that row's full forward and backward(g).current_obs.
// The per-row GEMM K-accumulation order is fixed by the kernel's cache
// blocking alone (independent of M and of thread count), and every layer
// treats its batch rows independently, so the contract is exact equality —
// not tolerance — across pooling/attention decoders, vector and image
// observations, batch sizes, reuse of one set of encodings and both SIMD
// kernels. Registered with CTest under RLATTACK_THREADS=1 and =4 like
// kernels_test.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/seq2seq/model.hpp"

namespace rlattack::seq2seq {
namespace {

using rlattack::testing::random_tensor;

Seq2SeqConfig variant_config(bool attention, bool image) {
  Seq2SeqConfig c;
  if (image) {
    c = make_atari_seq2seq_config({1, 8, 8}, 3, /*n=*/2, /*m=*/2);
  } else {
    c.input_steps = 3;
    c.output_steps = 2;
    c.actions = 2;
    c.frame_shape = {4};
  }
  c.embed = 8;
  c.lstm_hidden = 6;
  c.use_attention = attention;
  return c;
}

/// Copies row `r` of a [N, ...] tensor into a batch-1 tensor of the same
/// trailing shape.
nn::Tensor slice_row(const nn::Tensor& batch, std::size_t r) {
  std::vector<std::size_t> shape = batch.shape();
  shape[0] = 1;
  nn::Tensor row(shape);
  const std::size_t stride = batch.size() / batch.dim(0);
  std::memcpy(row.raw(), batch.raw() + r * stride, stride * sizeof(float));
  return row;
}

void expect_batch_parity(bool attention, bool image, std::size_t rows) {
  SCOPED_TRACE(std::string(attention ? "attention" : "pooling") + "/" +
               (image ? "image" : "vector") + "/rows=" +
               std::to_string(rows));
  const Seq2SeqConfig cfg = variant_config(attention, image);
  Seq2SeqModel model(cfg, 11);
  util::Rng rng(100 * rows + (attention ? 7 : 0) + (image ? 3 : 0));
  const std::size_t n = cfg.input_steps;
  const std::size_t m = cfg.output_steps;
  const std::size_t a = cfg.actions;
  const std::size_t f = cfg.frame_size();

  nn::Tensor actions = random_tensor({rows, n, a}, rng);
  nn::Tensor observations = random_tensor({rows, n, f}, rng);
  std::vector<HistoryEncoding> encodings =
      model.encode_history_batch(actions, observations);
  ASSERT_EQ(encodings.size(), rows);
  std::vector<const HistoryEncoding*> caches;
  caches.reserve(rows);
  for (const HistoryEncoding& enc : encodings) caches.push_back(&enc);

  // Three rounds over the one set of encodings, each at new s_t rows — the
  // PGD reuse pattern.
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    nn::Tensor current = random_tensor({rows, f}, rng);
    nn::Tensor grad_logits = random_tensor({rows, m, a}, rng);
    // Every third row gets a zero gradient — a forward-only probe in a
    // mixed batch. Its gradient row must come back exactly zero without
    // disturbing the neighbouring rows' bits.
    for (std::size_t r = 2; r < rows; r += 3)
      std::memset(grad_logits.raw() + r * m * a, 0, m * a * sizeof(float));

    nn::Tensor logits = model.forward_cached_batch(caches, current);
    nn::Tensor grads = model.backward_to_current_batch(grad_logits);
    ASSERT_EQ(logits.rank(), 3u);
    ASSERT_EQ(logits.dim(0), rows);
    ASSERT_EQ(grads.rank(), 2u);
    ASSERT_EQ(grads.dim(0), rows);

    // Reference: each row alone through the full forward and backward.
    for (std::size_t r = 0; r < rows; ++r) {
      SCOPED_TRACE("row " + std::to_string(r));
      nn::Tensor ref_logits =
          model.forward(slice_row(actions, r), slice_row(observations, r),
                        slice_row(current, r));
      nn::Tensor ref_grad =
          model.backward(slice_row(grad_logits, r)).current_obs;
      for (std::size_t t = 0; t < m; ++t)
        for (std::size_t k = 0; k < a; ++k)
          ASSERT_EQ(logits.at3(r, t, k), ref_logits.at3(0, t, k))
              << "logit [" << t << ", " << k << "]";
      for (std::size_t i = 0; i < f; ++i)
        ASSERT_EQ(grads.at2(r, i), ref_grad.at2(0, i)) << "grad " << i;
      if (r % 3 == 2) {
        for (std::size_t i = 0; i < f; ++i)
          ASSERT_EQ(grads.at2(r, i), 0.0f) << "zero-gradient row, grad " << i;
      }
    }
    model.zero_grad();
  }
}

TEST(Seq2SeqBatchedCraft, MatchesFullPathRowByRowBitExact) {
  namespace kernels = rlattack::nn::kernels;
  const kernels::SimdKernel saved = kernels::active_simd_kernel();
  // When auto-resolution landed on scalar the host lacks AVX2/FMA; forcing
  // the AVX2 kernel there would fault, so only the scalar path is covered.
  std::vector<kernels::SimdKernel> modes{kernels::SimdKernel::kScalar};
  if (saved == kernels::SimdKernel::kAvx2)
    modes.push_back(kernels::SimdKernel::kAvx2);
  for (kernels::SimdKernel mode : modes) {
    kernels::set_simd_kernel(mode);
    SCOPED_TRACE(kernels::simd_kernel_name(mode));
    for (bool attention : {false, true})
      for (bool image : {false, true})
        for (std::size_t rows : {std::size_t{1}, std::size_t{3},
                                 std::size_t{17}})
          expect_batch_parity(attention, image, rows);
  }
  kernels::set_simd_kernel(saved);
}

TEST(Seq2SeqBatchedCraft, RejectsEmptyBatch) {
  Seq2SeqModel model(variant_config(false, false), 1);
  EXPECT_THROW(model.forward_cached_batch({}, nn::Tensor({1, 4})),
               std::logic_error);
}

TEST(Seq2SeqBatchedCraft, RejectsRowCountMismatch) {
  const Seq2SeqConfig cfg = variant_config(false, false);
  Seq2SeqModel model(cfg, 2);
  util::Rng rng(9);
  nn::Tensor actions = random_tensor({2, 3, 2}, rng);
  nn::Tensor observations = random_tensor({2, 3, 4}, rng);
  std::vector<HistoryEncoding> encodings =
      model.encode_history_batch(actions, observations);
  std::vector<const HistoryEncoding*> caches{&encodings[0], &encodings[1]};
  // current_obs rows must match the cache count.
  EXPECT_THROW(
      model.forward_cached_batch(caches, random_tensor({3, 4}, rng)),
      std::logic_error);
  // Gradient rows must match the preceding forward's batch.
  nn::Tensor logits =
      model.forward_cached_batch(caches, random_tensor({2, 4}, rng));
  EXPECT_THROW(
      model.backward_to_current_batch(random_tensor({3, 2, 2}, rng)),
      std::logic_error);
}

TEST(Seq2SeqBatchedCraft, BackwardWithoutForwardThrows) {
  Seq2SeqModel model(variant_config(false, false), 3);
  util::Rng rng(10);
  EXPECT_THROW(
      model.backward_to_current_batch(random_tensor({1, 2, 2}, rng)),
      std::logic_error);
}

}  // namespace
}  // namespace rlattack::seq2seq
