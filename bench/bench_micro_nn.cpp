// Google-benchmark microbenchmarks for the NN substrate's hot paths: the
// layers that dominate attack-crafting latency (the attacker must craft a
// perturbation within one environment step).
//
// The custom main additionally runs a direct scalar-vs-AVX2 GEMM sweep and
// writes BENCH_gemm.json (median GFLOP/s per kernel per shape at threads=1)
// before handing over to google-benchmark, so the dispatch speedup lands in
// the bench trajectory as a regression baseline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "rlattack/attack/attack.hpp"
#include "rlattack/nn/conv2d.hpp"
#include "rlattack/nn/dense.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/nn/lstm.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace {

using namespace rlattack;

nn::Tensor random_tensor(std::vector<std::size_t> shape, util::Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (float& x : t.data()) x = rng.normal_f(0.0f, 1.0f);
  return t;
}

void BM_DenseForward(benchmark::State& state) {
  util::Rng rng(1);
  const auto width = static_cast<std::size_t>(state.range(0));
  nn::Dense dense(width, width, rng);
  nn::Tensor x = random_tensor({32, width}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(dense.forward(x));
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DenseForward)->Arg(64)->Arg(256)->Arg(512)->Arg(1024);

void BM_DenseBackward(benchmark::State& state) {
  util::Rng rng(1);
  const auto width = static_cast<std::size_t>(state.range(0));
  nn::Dense dense(width, width, rng);
  nn::Tensor x = random_tensor({32, width}, rng);
  nn::Tensor g = random_tensor({32, width}, rng);
  dense.forward(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dense.backward(g));
    dense.zero_grad();
  }
}
BENCHMARK(BM_DenseBackward)->Arg(64)->Arg(256)->Arg(512);

/// Raw kernel throughput at classic GEMM shapes, serial vs pooled and
/// scalar vs SIMD: arg 0 is the square size, arg 1 the worker count (0 =
/// RLATTACK_THREADS default), arg 2 the micro-kernel (0 = scalar, 1 = avx2).
/// Comparing /threads:1 rows against the others shows the pool speedup, and
/// simd:1 against simd:0 the dispatch speedup, in the CSV output.
void BM_SgemmSquare(benchmark::State& state) {
  util::Rng rng(7);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<std::size_t>(state.range(1));
  const auto kernel = static_cast<nn::kernels::SimdKernel>(state.range(2));
  if (kernel == nn::kernels::SimdKernel::kAvx2 &&
      !nn::kernels::avx2_available()) {
    state.SkipWithError("AVX2 not available on this host");
    return;
  }
  const nn::kernels::SimdKernel saved = nn::kernels::active_simd_kernel();
  nn::kernels::set_simd_kernel(kernel);
  util::ThreadPool::reset_global(threads);
  nn::Tensor a = random_tensor({n, n}, rng);
  nn::Tensor b = random_tensor({n, n}, rng);
  nn::Tensor c({n, n});
  for (auto _ : state) {
    nn::kernels::sgemm(nn::kernels::Trans::kNo, nn::kernels::Trans::kNo, n, n,
                       n, a.raw(), n, b.raw(), n, c.raw(), n, false);
    benchmark::DoNotOptimize(c.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // FLOPs
  util::ThreadPool::reset_global(0);
  nn::kernels::set_simd_kernel(saved);
}
BENCHMARK(BM_SgemmSquare)
    ->ArgNames({"n", "threads", "simd"})
    ->Args({256, 1, 0})
    ->Args({256, 1, 1})
    ->Args({256, 0, 1})
    ->Args({512, 1, 0})
    ->Args({512, 1, 1})
    ->Args({512, 0, 1})
    ->Args({1024, 1, 0})
    ->Args({1024, 1, 1})
    ->Args({1024, 0, 1});

void BM_Conv2DForward(benchmark::State& state) {
  util::Rng rng(2);
  nn::Conv2D conv(2, 8, 3, 2, 1, rng);
  nn::Tensor x = random_tensor({32, 2, 16, 16}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(x));
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_Conv2DForward);

void BM_LstmForward(benchmark::State& state) {
  util::Rng rng(3);
  const auto steps = static_cast<std::size_t>(state.range(0));
  nn::Lstm lstm(64, 48, false, rng);
  nn::Tensor x = random_tensor({32, steps, 64}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(lstm.forward(x));
  state.SetItemsProcessed(state.iterations() * 32 * steps);
}
BENCHMARK(BM_LstmForward)->Arg(5)->Arg(10)->Arg(50);

void BM_LstmBackward(benchmark::State& state) {
  util::Rng rng(3);
  const auto steps = static_cast<std::size_t>(state.range(0));
  nn::Lstm lstm(64, 48, false, rng);
  nn::Tensor x = random_tensor({32, steps, 64}, rng);
  nn::Tensor g = random_tensor({32, 48}, rng);
  for (auto _ : state) {
    lstm.forward(x);
    benchmark::DoNotOptimize(lstm.backward(g));
    lstm.zero_grad();
  }
}
BENCHMARK(BM_LstmBackward)->Arg(5)->Arg(10);

/// End-to-end attack-crafting latency: one FGSM perturbation against the
/// Pong-scale seq2seq model (the per-step cost of the every-step attack).
void BM_FgsmCraftPongScale(benchmark::State& state) {
  util::Rng rng(4);
  seq2seq::Seq2SeqConfig cfg =
      seq2seq::make_atari_seq2seq_config({1, 16, 16}, 3, 5, 1);
  seq2seq::Seq2SeqModel model(cfg, 5);
  attack::CraftInputs inputs;
  inputs.action_history = random_tensor({1, 5, 3}, rng);
  inputs.obs_history = random_tensor({1, 5, 256}, rng);
  inputs.current_obs = random_tensor({1, 256}, rng);
  attack::FgsmAttack fgsm;
  attack::Budget budget{attack::Budget::Norm::kLinf, 0.1f};
  env::ObservationBounds bounds{0.0f, 1.0f};
  for (auto _ : state)
    benchmark::DoNotOptimize(
        fgsm.perturb(model, inputs, attack::Goal{}, budget, bounds, rng));
}
BENCHMARK(BM_FgsmCraftPongScale);

/// One row of the direct dispatch sweep: median per-call latency of
/// C = A op(B) at threads=1 under each micro-kernel. Squares cover the
/// classic shapes; the rectangular rows mirror the seq2seq hot paths
/// (flattened key projection [B·n,H]·[H,E]ᵀ scale and the LSTM gate block
/// [B,4H]); the skinny rows are the per-frame products of the live attack
/// (batch-1 LSTM gates and Dense forward/backward, one conv image and its
/// input gradient, a 10-row history batch).
struct GemmPoint {
  std::size_t m = 0, n = 0, k = 0;
  nn::kernels::Trans tb = nn::kernels::Trans::kNo;
  double scalar_us = 0.0;
  double avx2_us = 0.0;
  double gflops(double us) const {
    return us > 0.0 ? 2.0 * static_cast<double>(m * n * k) / (us * 1e3) : 0.0;
  }
  double speedup() const {
    return avx2_us > 0.0 ? scalar_us / avx2_us : 0.0;
  }
};

double gemm_latency_us(nn::kernels::SimdKernel kernel, const GemmPoint& p) {
  nn::kernels::set_simd_kernel(kernel);
  const std::size_t m = p.m, n = p.n, k = p.k;
  const bool tb = p.tb == nn::kernels::Trans::kYes;
  util::Rng rng(11);
  nn::Tensor a = random_tensor({m, k}, rng);
  nn::Tensor b = random_tensor(tb ? std::vector<std::size_t>{n, k}
                                  : std::vector<std::size_t>{k, n},
                               rng);
  nn::Tensor c({m, n});
  // Size the inner repeat count so every sample is a few ms even at the
  // smallest shapes; median of kSamples absorbs scheduler noise.
  const double flop = 2.0 * static_cast<double>(m * n * k);
  const auto iters = std::max<std::size_t>(
      1, static_cast<std::size_t>(2.0e8 / flop));
  constexpr int kWarmup = 2;
  constexpr int kSamples = 9;
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (int s = 0; s < kWarmup + kSamples; ++s) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < iters; ++i) {
      nn::kernels::sgemm(nn::kernels::Trans::kNo, p.tb, m, n, k, a.raw(), k,
                         b.raw(), tb ? k : n, c.raw(), n, false);
      benchmark::DoNotOptimize(c.raw());
    }
    const auto end = std::chrono::steady_clock::now();
    if (s >= kWarmup)
      samples.push_back(
          std::chrono::duration<double, std::micro>(end - start).count() /
          static_cast<double>(iters));
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<long>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

/// "N" for op(B) = B, "T" for op(B) = Bᵀ (the Dense/Lstm forward layout).
const char* trans_name(nn::kernels::Trans t) {
  return t == nn::kernels::Trans::kYes ? "T" : "N";
}

void write_gemm_json(const std::vector<GemmPoint>& points) {
  std::FILE* out = std::fopen("BENCH_gemm.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro_nn: cannot write BENCH_gemm.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_micro_nn\",\n");
  std::fprintf(out, "  \"threads\": 1,\n  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const GemmPoint& p = points[i];
    std::fprintf(out,
                 "    {\"m\": %zu, \"n\": %zu, \"k\": %zu, \"tb\": \"%s\", "
                 "\"scalar_us\": %.2f, \"scalar_gflops\": %.1f, "
                 "\"avx2_us\": %.2f, \"avx2_gflops\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 p.m, p.n, p.k, trans_name(p.tb), p.scalar_us,
                 p.gflops(p.scalar_us), p.avx2_us,
                 p.gflops(p.avx2_us), p.speedup(),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

/// Runs the sweep and emits BENCH_gemm.json. Skipped (no file written) when
/// the host lacks AVX2 — a one-kernel sweep carries no dispatch signal.
void run_gemm_sweep() {
  if (!nn::kernels::avx2_available()) {
    std::printf("gemm sweep skipped: AVX2 not available on this host\n");
    return;
  }
  const nn::kernels::SimdKernel saved = nn::kernels::active_simd_kernel();
  util::ThreadPool::reset_global(1);
  constexpr auto kN = nn::kernels::Trans::kNo;
  constexpr auto kT = nn::kernels::Trans::kYes;
  std::vector<GemmPoint> points = {
      {64, 64, 64, kN},   {128, 128, 128, kN},   {256, 256, 256, kN},
      {512, 512, 512, kN}, {1024, 1024, 1024, kN},
      {320, 48, 48, kN},  // flattened key projection, B=32 n=10 H=E=48 scale
      {32, 192, 48, kN},  // LSTM gate block, B=32 4H=192
      {1, 192, 48, kT},   // batch-1 LSTM input gates, x W^T
      {1, 64, 256, kT},   // batch-1 Dense forward, x W^T
      {1, 64, 256, kN},   // batch-1 Dense input gradient, g W
      {16, 16, 72, kN},   // one conv image, W x im2col
      {72, 16, 16, kN},   // its input gradient's shape, W^T g: 2 row blocks
      {10, 64, 256, kT},  // 10-row history batch through a Dense
  };
  for (GemmPoint& p : points) {
    p.scalar_us = gemm_latency_us(nn::kernels::SimdKernel::kScalar, p);
    p.avx2_us = gemm_latency_us(nn::kernels::SimdKernel::kAvx2, p);
    std::printf(
        "sgemm %4zux%-4zux%-4zu %s scalar=%8.2fus (%5.1f GF/s) "
        "avx2=%8.2fus (%5.1f GF/s)  %5.2fx\n",
        p.m, p.n, p.k, trans_name(p.tb), p.scalar_us, p.gflops(p.scalar_us),
        p.avx2_us, p.gflops(p.avx2_us), p.speedup());
    std::fflush(stdout);
  }
  util::ThreadPool::reset_global(0);
  nn::kernels::set_simd_kernel(saved);
  write_gemm_json(points);
}

}  // namespace

int main(int argc, char** argv) {
  run_gemm_sweep();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
