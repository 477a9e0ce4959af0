// Shared scaffolding for the experiment bench binaries: a Zoo wired to the
// shared checkpoint cache, bench-scale plumbing and CSV output next to the
// working directory.
#pragma once

#include <cstdio>
#include <iostream>
#include <string>

#include "rlattack/core/experiments.hpp"
#include "rlattack/core/zoo.hpp"
#include "rlattack/obs/forensics.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/table.hpp"

namespace rlattack::bench {

/// Wires the observability flags to their process-exit exports and stamps
/// the binary name into the JSON. Call first thing in every bench main.
///   --metrics-out <path>      METRICS JSON (RLATTACK_METRICS_OUT equivalent)
///   --trace-out [path]        Chrome/Perfetto trace JSON; enables tracing.
///                             Bare flag defaults to <binary>_trace.json.
///   --forensics-out [path]    per-step forensics JSONL; enables the stream.
///                             Bare flag defaults to <binary>_forensics.jsonl.
inline void init_metrics(int argc, char** argv, const std::string& binary) {
  obs::set_export_binary(binary);
  // A flag's [path] operand is the next argv unless that is missing or
  // itself a flag — then the default path keyed on the binary name is used.
  const auto optional_path = [&](int i, const std::string& fallback) {
    if (i + 1 < argc && argv[i + 1][0] != '-') return std::string(argv[i + 1]);
    return fallback;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg == "--metrics-out" && i + 1 < argc) {
      obs::set_export_path(argv[i + 1]);
    } else if (arg == "--trace-out") {
      obs::set_trace_path(optional_path(i, binary + "_trace.json"));
      obs::set_trace_enabled(true);
    } else if (arg == "--forensics-out") {
      obs::set_forensics_path(optional_path(i, binary + "_forensics.jsonl"));
    }
  }
}

/// Builds the shared Zoo. All bench binaries use the same cache directory,
/// so victims/approximators are trained once by whichever bench runs first
/// and reused afterwards.
inline core::Zoo make_zoo() {
  core::ZooConfig config;
  config.cache_dir = "checkpoints";
  config.scale = core::bench_scale_from_env();
  config.seed = 42;
  return core::Zoo(config);
}

/// Number of per-point episode runs, scaled with the bench scale but never
/// below 4. The paper uses 20 at full scale; RLATTACK_BENCH_SCALE > 1
/// buys proportionally more runs (tighter error bars on bigger machines),
/// < 1 trades precision for wall-clock.
inline std::size_t scaled_runs(std::size_t paper_runs = 20) {
  const double scale = core::bench_scale_from_env();
  const auto runs =
      static_cast<std::size_t>(static_cast<double>(paper_runs) * scale);
  return std::max<std::size_t>(4, runs);
}

/// Prints one machine-parseable wall-clock line per experiment; run_benches.sh
/// collects these into bench_times.csv / BENCH_experiments.json.
inline void emit_timing(const std::string& experiment,
                        const core::ExperimentTiming& t) {
  std::printf("[timing] experiment=%s hosts=%zu episodes=%zu wall_s=%.3f\n",
              experiment.c_str(), t.hosts, t.episodes, t.wall_seconds);
  // Timing lines must survive a later abort in the same binary (stdout is
  // block-buffered when redirected to run_benches.sh's log).
  std::fflush(stdout);
}

/// Prints the table and writes it as CSV alongside the working directory.
inline void emit(const util::TableWriter& table, const std::string& name,
                 const std::string& caption) {
  std::cout << "\n=== " << caption << " ===\n" << table.to_string();
  const std::string path = name + ".csv";
  if (table.write_csv(path))
    std::cout << "(rows written to " << path << ")\n";
}

}  // namespace rlattack::bench
