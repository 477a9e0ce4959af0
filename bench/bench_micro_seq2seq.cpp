// Craft-latency microbench: times a full adversarial craft (anchor query +
// k PGD gradient iterations) through one craft context, which encodes the
// history once and serves every query from the cached tail, sweeping
// history length n and PGD steps k.
//
// Emits BENCH_craft.json (one object per swept point plus the headline
// 10-step PGD row at the default CartPole approximator config) as a
// regression baseline; run_benches.sh picks this binary up like any other
// bench and the JSON lands next to bench_times.csv.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rlattack/attack/attack.hpp"
#include "rlattack/seq2seq/model.hpp"
#include "rlattack/util/rng.hpp"

namespace {

using rlattack::attack::Budget;
using rlattack::attack::CraftInputs;
using rlattack::attack::Goal;
using rlattack::attack::PgdAttack;

struct Point {
  std::string config;
  std::size_t input_steps = 0;
  std::size_t pgd_steps = 0;
  double cached_us = 0.0;
};

CraftInputs make_inputs(const rlattack::seq2seq::Seq2SeqConfig& cfg,
                        rlattack::util::Rng& rng) {
  CraftInputs in;
  in.action_history = rlattack::nn::Tensor({1, cfg.input_steps, cfg.actions});
  in.obs_history =
      rlattack::nn::Tensor({1, cfg.input_steps, cfg.frame_size()});
  in.current_obs = rlattack::nn::Tensor({1, cfg.frame_size()});
  for (std::size_t t = 0; t < cfg.input_steps; ++t)
    in.action_history[t * cfg.actions + rng.uniform_int(cfg.actions)] = 1.0f;
  for (float& x : in.obs_history.data()) x = rng.normal_f(0.0f, 1.0f);
  for (float& x : in.current_obs.data()) x = rng.normal_f(0.0f, 1.0f);
  return in;
}

/// Median-of-repeats per-craft latency in microseconds. Each repeat is one
/// full craft: anchor resolution plus `steps` PGD gradient iterations.
double craft_latency_us(rlattack::seq2seq::Seq2SeqModel& model,
                        const CraftInputs& inputs, std::size_t steps) {
  PgdAttack pgd(steps, 0.3f);
  const Budget budget{Budget::Norm::kL2, 0.5f};
  const rlattack::env::ObservationBounds bounds{-10.0f, 10.0f};
  const Goal goal;
  constexpr int kWarmup = 3;
  constexpr int kRepeats = 15;
  std::vector<double> samples;
  samples.reserve(kRepeats);
  for (int r = 0; r < kWarmup + kRepeats; ++r) {
    rlattack::util::Rng rng(99);  // PGD ignores it; identical work per run
    const auto start = std::chrono::steady_clock::now();
    rlattack::nn::Tensor out =
        pgd.perturb(model, inputs, goal, budget, bounds, rng);
    const auto end = std::chrono::steady_clock::now();
    if (out.empty()) std::abort();  // keep the craft observable
    if (r >= kWarmup)
      samples.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
  }
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<long>(samples.size() / 2),
                   samples.end());
  return samples[samples.size() / 2];
}

Point run_point(const std::string& name,
                const rlattack::seq2seq::Seq2SeqConfig& cfg,
                std::size_t pgd_steps) {
  rlattack::seq2seq::Seq2SeqModel model(cfg, /*seed=*/42);
  rlattack::util::Rng rng(7);
  const CraftInputs inputs = make_inputs(cfg, rng);
  Point p;
  p.config = name;
  p.input_steps = cfg.input_steps;
  p.pgd_steps = pgd_steps;
  p.cached_us = craft_latency_us(model, inputs, pgd_steps);
  std::printf("%-22s n=%-3zu pgd=%-3zu cached=%9.1fus\n", name.c_str(),
              p.input_steps, p.pgd_steps, p.cached_us);
  std::fflush(stdout);
  return p;
}

void write_json(const std::vector<Point>& points, const Point& headline) {
  std::FILE* out = std::fopen("BENCH_craft.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_micro_seq2seq: cannot write BENCH_craft.json\n");
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_micro_seq2seq\",\n");
  std::fprintf(out,
               "  \"headline\": {\"config\": \"%s\", \"input_steps\": %zu, "
               "\"pgd_steps\": %zu, \"cached_us\": %.1f},\n",
               headline.config.c_str(), headline.input_steps,
               headline.pgd_steps, headline.cached_us);
  std::fprintf(out, "  \"points\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"config\": \"%s\", \"input_steps\": %zu, "
                 "\"pgd_steps\": %zu, \"cached_us\": %.1f}%s\n",
                 p.config.c_str(), p.input_steps, p.pgd_steps, p.cached_us,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace

int main(int argc, char** argv) {
  rlattack::bench::init_metrics(argc, argv, "bench_micro_seq2seq");

  std::vector<Point> points;
  // CartPole approximator, n sweep x PGD-step sweep. n = 10 / pgd = 10 is
  // the headline row.
  for (std::size_t n : {std::size_t{5}, std::size_t{10}, std::size_t{20}}) {
    for (std::size_t steps : {std::size_t{1}, std::size_t{10}}) {
      points.push_back(
          run_point("cartpole", rlattack::seq2seq::make_cartpole_seq2seq_config(
                                    n, /*output_steps=*/1),
                    steps));
    }
  }
  // One image-config point: the conv+LSTM history encoder runs once per
  // craft there too.
  points.push_back(
      run_point("atari16", rlattack::seq2seq::make_atari_seq2seq_config(
                               {1, 16, 16}, 3, /*input_steps=*/5,
                               /*output_steps=*/1),
                /*pgd_steps=*/10));
  // Attention-decoder variant: the encoding also holds the key projection
  // K = E W_a^T.
  {
    rlattack::seq2seq::Seq2SeqConfig cfg =
        rlattack::seq2seq::make_cartpole_seq2seq_config(10, 1);
    cfg.use_attention = true;
    points.push_back(run_point("cartpole_attention", cfg, 10));
  }

  const Point* headline = nullptr;
  for (const Point& p : points)
    if (p.config == "cartpole" && p.input_steps == 10 && p.pgd_steps == 10)
      headline = &p;
  write_json(points, *headline);
  std::printf("headline: %.1fus (cartpole n=10, 10-step PGD)\n",
              headline->cached_us);
  return 0;
}
