// Losses, ops, optimizers and serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gradcheck.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/loss.hpp"
#include "rlattack/nn/ops.hpp"
#include "rlattack/nn/optimizer.hpp"
#include "rlattack/nn/serialize.hpp"

namespace rlattack::nn {
namespace {

using rlattack::testing::random_tensor;

TEST(Ops, SoftmaxLastDimSumsToOne) {
  util::Rng rng(1);
  Tensor t = random_tensor({3, 5}, rng);
  softmax_last_dim(t);
  for (std::size_t r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_GT(t.at2(r, c), 0.0f);
      sum += t.at2(r, c);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(Ops, SoftmaxNumericallyStable) {
  Tensor t({1, 2}, {1000.0f, 1001.0f});
  softmax_last_dim(t);
  EXPECT_TRUE(std::isfinite(t[0]));
  EXPECT_GT(t[1], t[0]);
}

TEST(Ops, ArgmaxVariants) {
  std::vector<float> v{1.0f, 5.0f, 3.0f};
  EXPECT_EQ(argmax(v), 1u);
  Tensor t({2, 2}, {0.0f, 1.0f, 9.0f, -1.0f});
  auto rows = argmax_rows(t);
  EXPECT_EQ(rows[0], 1u);
  EXPECT_EQ(rows[1], 0u);
}

TEST(Ops, OneHot) {
  Tensor t = one_hot(2, 4);
  EXPECT_FLOAT_EQ(t[2], 1.0f);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_THROW(one_hot(4, 4), std::logic_error);
}

TEST(Ops, Clamp) {
  Tensor t({3}, {-2.0f, 0.5f, 2.0f});
  clamp_(t, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 0.5f);
  EXPECT_FLOAT_EQ(t[2], 1.0f);
}

TEST(SoftmaxCrossEntropy, MatchesManualComputation) {
  Tensor logits({1, 2}, {0.0f, 0.0f});
  auto res = softmax_cross_entropy(logits, {0});
  EXPECT_NEAR(res.loss, std::log(2.0f), 1e-5);
  // grad = p - onehot = (0.5 - 1, 0.5 - 0).
  EXPECT_NEAR(res.grad[0], -0.5f, 1e-5);
  EXPECT_NEAR(res.grad[1], 0.5f, 1e-5);
}

TEST(SoftmaxCrossEntropy, SequenceRowsAveraged) {
  Tensor logits({1, 2, 2}, {0.0f, 0.0f, 0.0f, 0.0f});
  auto res = softmax_cross_entropy(logits, {0, 1});
  EXPECT_NEAR(res.loss, std::log(2.0f), 1e-5);
  EXPECT_NEAR(res.grad[0], -0.25f, 1e-5);  // averaged over 2 rows
}

TEST(SoftmaxCrossEntropy, RowWeightsMaskRows) {
  Tensor logits({1, 2, 2}, {3.0f, -1.0f, 0.5f, 0.5f});
  auto weighted = softmax_cross_entropy(logits, {0, 0}, {0.0f, 1.0f});
  // Weighted row 0 contributes nothing; gradient zero there.
  EXPECT_FLOAT_EQ(weighted.grad[0], 0.0f);
  EXPECT_FLOAT_EQ(weighted.grad[1], 0.0f);
  EXPECT_NE(weighted.grad[2], 0.0f);
}

TEST(SoftmaxCrossEntropy, GradMatchesFiniteDifference) {
  util::Rng rng(3);
  Tensor logits = random_tensor({2, 3, 4}, rng);
  std::vector<std::size_t> targets{0, 1, 2, 3, 0, 1};
  auto res = softmax_cross_entropy(logits, targets);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.size(); i += 3) {
    const float orig = logits[i];
    logits[i] = orig + eps;
    const float up = softmax_cross_entropy(logits, targets).loss;
    logits[i] = orig - eps;
    const float down = softmax_cross_entropy(logits, targets).loss;
    logits[i] = orig;
    EXPECT_NEAR(res.grad[i], (up - down) / (2.0f * eps), 2e-3);
  }
}

TEST(SoftmaxCrossEntropy, InvalidInputsThrow) {
  Tensor logits({1, 2});
  EXPECT_THROW(softmax_cross_entropy(logits, {0, 1}), std::logic_error);
  EXPECT_THROW(softmax_cross_entropy(logits, {5}), std::logic_error);
  EXPECT_THROW(softmax_cross_entropy(logits, {0}, {0.0f}), std::logic_error);
}

TEST(ClassificationAccuracy, CountsCorrectRows) {
  Tensor logits({2, 2}, {1.0f, 0.0f, 0.0f, 1.0f});
  EXPECT_DOUBLE_EQ(classification_accuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(classification_accuracy(logits, {1, 1}), 0.5);
}

TEST(MseLoss, ValueAndGrad) {
  Tensor pred({2}, {1.0f, 3.0f});
  Tensor target({2}, {0.0f, 1.0f});
  auto res = mse_loss(pred, target);
  EXPECT_NEAR(res.loss, (1.0f + 4.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(res.grad[0], 2.0f * 1.0f / 2.0f, 1e-6);
  EXPECT_NEAR(res.grad[1], 2.0f * 2.0f / 2.0f, 1e-6);
}

TEST(HuberLoss, QuadraticInsideLinearOutside) {
  Tensor pred({2}, {0.5f, 3.0f});
  Tensor target({2}, {0.0f, 0.0f});
  auto res = huber_loss(pred, target, 1.0f);
  // 0.5 * 0.25 + (3 - 0.5) = 0.125 + 2.5, averaged over 2.
  EXPECT_NEAR(res.loss, (0.125f + 2.5f) / 2.0f, 1e-5);
  EXPECT_NEAR(res.grad[0], 0.5f / 2.0f, 1e-6);   // quadratic branch: d
  EXPECT_NEAR(res.grad[1], 1.0f / 2.0f, 1e-6);   // linear branch: delta
}

TEST(QLearningLoss, OnlyTakenActionGetsGradient) {
  Tensor q({2, 3}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  auto res = q_learning_loss(q, {1, 2}, {2.0f, 6.0f});
  EXPECT_FLOAT_EQ(res.grad.at2(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(res.grad.at2(0, 1), 0.0f);  // exact match, zero error
  EXPECT_FLOAT_EQ(res.grad.at2(1, 2), 0.0f);
  auto res2 = q_learning_loss(q, {0, 0}, {0.0f, 0.0f});
  EXPECT_NE(res2.grad.at2(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(res2.grad.at2(0, 1), 0.0f);
}

TEST(Sgd, MinimisesQuadratic) {
  util::Rng rng(5);
  Dense d(1, 1, rng);
  Sgd opt(d, 0.1f);
  // Minimise (w*1 + b - 3)^2 via MSE on fixed data.
  Tensor x({1, 1}, {1.0f});
  Tensor target({1, 1}, {3.0f});
  for (int i = 0; i < 200; ++i) {
    Tensor y = d.forward(x);
    auto loss = mse_loss(y, target);
    d.backward(loss.grad);
    opt.step();
  }
  Tensor y = d.forward(x);
  EXPECT_NEAR(y[0], 3.0f, 1e-3);
}

TEST(Sgd, MomentumAcceleratesDescent) {
  util::Rng rng(5);
  Dense plain_net(1, 1, rng);
  util::Rng rng2(5);
  Dense momentum_net(1, 1, rng2);
  Sgd plain(plain_net, 0.01f);
  Sgd with_momentum(momentum_net, 0.01f, 0.9f);
  Tensor x({1, 1}, {1.0f});
  Tensor target({1, 1}, {3.0f});
  auto run = [&](Dense& net, Sgd& opt) {
    for (int i = 0; i < 30; ++i) {
      auto loss = mse_loss(net.forward(x), target);
      net.backward(loss.grad);
      opt.step();
    }
    return mse_loss(net.forward(x), target).loss;
  };
  const float plain_loss = run(plain_net, plain);
  const float momentum_loss = run(momentum_net, with_momentum);
  EXPECT_LT(momentum_loss, plain_loss);
}

TEST(Adam, MinimisesQuadratic) {
  util::Rng rng(6);
  Dense d(2, 1, rng);
  Adam opt(d, 0.05f);
  Tensor x({1, 2}, {1.0f, -2.0f});
  Tensor target({1, 1}, {0.5f});
  for (int i = 0; i < 300; ++i) {
    auto loss = mse_loss(d.forward(x), target);
    d.backward(loss.grad);
    opt.step();
  }
  EXPECT_NEAR(d.forward(x)[0], 0.5f, 1e-3);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  util::Rng rng(7);
  Dense d(2, 2, rng);
  Sgd opt(d, 0.1f);
  auto params = d.params();
  params[0].grad->fill(10.0f);
  params[1].grad->fill(10.0f);
  opt.clip_grad_norm(1.0f);
  double s = 0.0;
  for (auto& p : params)
    for (float g : p.grad->data()) s += g * g;
  EXPECT_NEAR(std::sqrt(s), 1.0, 1e-5);
}

TEST(Optimizer, ClipLeavesSmallGradientsAlone) {
  util::Rng rng(7);
  Dense d(1, 1, rng);
  Sgd opt(d, 0.1f);
  auto params = d.params();
  (*params[0].grad)[0] = 0.5f;
  opt.clip_grad_norm(10.0f);
  EXPECT_FLOAT_EQ((*params[0].grad)[0], 0.5f);
}

TEST(Optimizer, StepZeroesGradients) {
  util::Rng rng(8);
  Dense d(2, 2, rng);
  Sgd opt(d, 0.1f);
  auto params = d.params();
  params[0].grad->fill(1.0f);
  opt.step();
  for (float g : params[0].grad->data()) EXPECT_FLOAT_EQ(g, 0.0f);
}

TEST(Serialize, RoundTripRestoresOutputs) {
  util::Rng rng1(9), rng2(10);
  Dense a(3, 2, rng1), b(3, 2, rng2);
  const std::string path = ::testing::TempDir() + "rlattack_params.ckpt";
  ASSERT_TRUE(save_parameters(a, path));
  ASSERT_TRUE(load_parameters(b, path));
  Tensor x = random_tensor({1, 3}, rng1);
  Tensor ya = a.forward(x), yb = b.forward(x);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
  std::filesystem::remove(path);
}

TEST(Serialize, ArchitectureMismatchFails) {
  util::Rng rng(9);
  Dense a(3, 2, rng), wrong(2, 2, rng);
  const std::string path = ::testing::TempDir() + "rlattack_params2.ckpt";
  ASSERT_TRUE(save_parameters(a, path));
  EXPECT_FALSE(load_parameters(wrong, path));
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileFails) {
  util::Rng rng(9);
  Dense a(3, 2, rng);
  EXPECT_FALSE(load_parameters(a, "/nonexistent/path.ckpt"));
}

TEST(Serialize, CorruptMagicFails) {
  util::Rng rng(9);
  Dense a(3, 2, rng);
  const std::string path = ::testing::TempDir() + "rlattack_corrupt.ckpt";
  {
    std::ofstream out(path, std::ios::binary);
    out << "GARBAGEDATA";
  }
  EXPECT_FALSE(load_parameters(a, path));
  std::filesystem::remove(path);
}

/// Bit patterns of every parameter value, to show a failed load wrote
/// nothing.
std::vector<std::uint32_t> parameter_bits(Layer& model) {
  std::vector<std::uint32_t> bits;
  for (const Param& p : model.params())
    for (float v : p.value->data()) bits.push_back(std::bit_cast<std::uint32_t>(v));
  return bits;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, TruncatedFileFailsWithoutWritingAnyParameter) {
  util::Rng rng1(9), rng2(10);
  Dense a(3, 2, rng1), b(3, 2, rng2);
  const std::string path = ::testing::TempDir() + "rlattack_truncated.ckpt";
  ASSERT_TRUE(save_parameters(a, path));
  const std::string whole = file_bytes(path);
  // Layout: 16-byte header, then per parameter its rank, its extents and
  // its floats. The cuts land in the header, in the first parameter's
  // shape, in the middle of the first tensor, on the boundary after it and
  // in the middle of the last tensor.
  const std::vector<Param> params = a.params();
  ASSERT_EQ(params.size(), 2u);
  const std::size_t first_data = 16 + 8 + 8 * params[0].value->shape().size();
  const std::size_t first_end = first_data + params[0].value->size() * 4;
  ASSERT_EQ(whole.size(), first_end + 8 +
                              8 * params[1].value->shape().size() +
                              params[1].value->size() * 4);
  const std::vector<std::uint32_t> before = parameter_bits(b);
  for (const std::size_t cut :
       {std::size_t{3}, std::size_t{16}, first_data - 4,
        first_data + 6, first_end, whole.size() - 6, whole.size() - 1}) {
    write_bytes(path, whole.substr(0, cut));
    EXPECT_FALSE(load_parameters(b, path)) << "cut at " << cut;
    EXPECT_EQ(parameter_bits(b), before) << "cut at " << cut;
  }
  std::filesystem::remove(path);
}

TEST(Serialize, TrailingByteFailsWithoutWritingAnyParameter) {
  util::Rng rng1(9), rng2(10);
  Dense a(3, 2, rng1), b(3, 2, rng2);
  const std::string path = ::testing::TempDir() + "rlattack_trailing.ckpt";
  ASSERT_TRUE(save_parameters(a, path));
  write_bytes(path, file_bytes(path) + '\0');
  const std::vector<std::uint32_t> before = parameter_bits(b);
  EXPECT_FALSE(load_parameters(b, path));
  EXPECT_EQ(parameter_bits(b), before);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rlattack::nn
