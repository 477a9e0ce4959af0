// LSTM correctness: shapes, both output modes, full BPTT gradient checks.
#include <gtest/gtest.h>

#include <ostream>

#include "gradcheck.hpp"
#include "rlattack/nn/lstm.hpp"
#include "rlattack/nn/sequential.hpp"
#include "rlattack/obs/metrics.hpp"

namespace rlattack::nn {
namespace {

using rlattack::testing::check_input_gradient;
using rlattack::testing::check_param_gradients;
using rlattack::testing::random_tensor;

TEST(Lstm, OutputShapes) {
  util::Rng rng(1);
  Lstm seq(3, 5, /*return_sequences=*/true, rng);
  Lstm last(3, 5, /*return_sequences=*/false, rng);
  Tensor x = random_tensor({2, 4, 3}, rng);
  Tensor ys = seq.forward(x);
  EXPECT_EQ(ys.dim(0), 2u);
  EXPECT_EQ(ys.dim(1), 4u);
  EXPECT_EQ(ys.dim(2), 5u);
  Tensor yl = last.forward(x);
  EXPECT_EQ(yl.rank(), 2u);
  EXPECT_EQ(yl.dim(1), 5u);
}

TEST(Lstm, LastOutputMatchesSequenceTail) {
  util::Rng rng(2);
  Lstm seq(3, 4, true, rng);
  Lstm last(3, 4, false, rng);
  copy_parameters(last, seq);
  Tensor x = random_tensor({2, 5, 3}, rng);
  Tensor ys = seq.forward(x);
  Tensor yl = last.forward(x);
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t k = 0; k < 4; ++k)
      EXPECT_FLOAT_EQ(yl.at2(b, k), ys.at3(b, 4, k));
}

TEST(Lstm, RejectsWrongInputWidth) {
  util::Rng rng(1);
  Lstm l(3, 4, true, rng);
  EXPECT_THROW(l.forward(Tensor({2, 4, 5})), std::logic_error);
  EXPECT_THROW(l.forward(Tensor({2, 3})), std::logic_error);
}

TEST(Lstm, ForgetBiasInitialisedToOne) {
  util::Rng rng(1);
  Lstm l(2, 3, true, rng);
  auto params = l.params();
  // Bias layout: [i, f, g, o] slices of width hidden.
  const Tensor& b = *params[2].value;
  EXPECT_FLOAT_EQ(b[3], 1.0f);  // first forget-gate bias
  EXPECT_FLOAT_EQ(b[0], 0.0f);  // input gate untouched
}

TEST(Lstm, BackwardInputRunsOneGemmPerStep) {
  // T - 1 recurrent dh GEMMs (dh_{-1} feeds nothing) plus one fused dX GEMM.
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  util::Rng rng(3);
  constexpr std::size_t kSteps = 5;
  Lstm lstm(3, 4, /*return_sequences=*/false, rng);
  lstm.forward(random_tensor({2, kSteps, 3}, rng));
  const Tensor grad = random_tensor({2, 4}, rng);
  obs::Counter& calls =
      obs::MetricsRegistry::global().counter("nn.gemm.calls");
  const std::uint64_t before = calls.value();
  lstm.backward_input(grad);
  EXPECT_EQ(calls.value() - before, kSteps);
  obs::set_metrics_enabled(saved);
}

TEST(Lstm, StatelessAcrossCalls) {
  util::Rng rng(4);
  Lstm l(2, 3, false, rng);
  Tensor x = random_tensor({1, 3, 2}, rng);
  Tensor y1 = l.forward(x);
  Tensor y2 = l.forward(x);
  for (std::size_t i = 0; i < y1.size(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

struct LstmShape {
  std::size_t batch, steps, in, hidden;
  bool sequences;
};

// gtest would print the struct's raw bytes, padding included, into the
// ctest names gtest_discover_tests registers; print the fields instead.
void PrintTo(const LstmShape& s, std::ostream* os) {
  *os << "batch " << s.batch << " steps " << s.steps << " in " << s.in
      << " hidden " << s.hidden << (s.sequences ? " sequences" : " last");
}

class LstmGradCheck : public ::testing::TestWithParam<LstmShape> {};

TEST_P(LstmGradCheck, BpttGradients) {
  const auto p = GetParam();
  util::Rng rng(71);
  Lstm l(p.in, p.hidden, p.sequences, rng);
  Tensor x = random_tensor({p.batch, p.steps, p.in}, rng, 0.5f);
  // LSTM gradients through many tanh/sigmoid compositions need a finer
  // finite-difference step.
  check_input_gradient(l, x, rng, /*tolerance=*/3e-2, /*fd_eps=*/5e-3f);
  check_param_gradients(l, x, rng, /*tolerance=*/3e-2, /*fd_eps=*/5e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LstmGradCheck,
    ::testing::Values(LstmShape{1, 1, 2, 3, true},
                      LstmShape{2, 3, 2, 4, true},
                      LstmShape{2, 3, 2, 4, false},
                      LstmShape{1, 6, 3, 2, false},
                      LstmShape{3, 2, 4, 3, true}));

TEST(Lstm, StackedLstmGradCheck) {
  util::Rng rng(73);
  Sequential net;
  net.emplace<Lstm>(3, 4, true, rng).emplace<Lstm>(4, 2, false, rng);
  Tensor x = random_tensor({2, 4, 3}, rng, 0.5f);
  check_input_gradient(net, x, rng, 3e-2, 5e-3f);
  check_param_gradients(net, x, rng, 3e-2, 5e-3f);
}

}  // namespace
}  // namespace rlattack::nn
