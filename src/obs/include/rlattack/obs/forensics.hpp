// Per-step attack forensics stream.
//
// The trace layer (trace.hpp) answers "when did which subsystem run"; this
// stream answers "what did the attack do at every environment step": the
// approximator's predicted victim action vs. the action actually taken
// (agreement flag), the step's model/victim query counts, the realised
// L2/L∞ perturbation norms, the attack-loss value, and — when a detector is
// configured — the per-step detection score. One JSON object per step,
// exported as JSONL at process exit (RLATTACK_FORENSICS_OUT / --forensics-out)
// and folded into per-episode accuracy-vs-time curves by
// tools/forensics_summary.py.
//
// Discipline (same as metrics/trace):
//  - Off by default; the only cost on the disabled path is one relaxed bool
//    load per step. Forensics observes through read-only model queries that
//    never touch the episode RNG or environment, so enabling it does not
//    change experiment rows — but because those extra queries do count into
//    the query telemetry, the bit-identical-rows contract is stated for the
//    *disabled* stream.
//  - Deterministic export. Records buffer in memory and are sorted by
//    (episode_key, seed, step) before writing, so the JSONL is
//    byte-identical whether the episodes ran interleaved as fibers of the
//    rendezvous (run_episode_jobs) or one after another without a planner.
//  - Layering. obs sits below core, so the detector wiring here is plain
//    numbers (ForensicsDetector); core/pipeline.cpp builds the actual
//    StatefulDetector from them per episode.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace rlattack::obs {

namespace forensics_detail {
/// Process-wide stream flag; set by set_forensics_path(non-empty) or the
/// RLATTACK_FORENSICS_OUT env var. Inline for the one-relaxed-load off path.
inline std::atomic<bool> g_forensics_enabled{false};
inline bool forensics_on() noexcept {
  return g_forensics_enabled.load(std::memory_order_relaxed);
}
}  // namespace forensics_detail

/// True when per-step forensics records are being collected.
inline bool forensics_enabled() noexcept {
  return forensics_detail::forensics_on();
}

/// One environment step as seen by the attack. Integer fields use -1 for
/// "not observed" (e.g. no prediction on a step the attack skipped).
struct ForensicsStep {
  std::uint64_t episode_key = 0;  ///< FNV-1a over (seed, policy, budget, ...)
  std::uint64_t seed = 0;         ///< episode seed (also inside the key)
  std::uint32_t step = 0;         ///< 0-based step within the episode
  bool eligible = false;          ///< attack policy allowed this step
  bool attacked = false;          ///< a perturbation was delivered
  std::int32_t predicted = -1;    ///< approximator's predicted victim action
  std::int32_t action = -1;       ///< action the victim actually took
  std::int32_t agree = -1;        ///< predicted == action (−1: no prediction)
  std::uint32_t model_forward = 0;   ///< approximator forward passes, this step
  std::uint32_t model_gradient = 0;  ///< approximator gradient queries
  std::uint32_t victim_queries = 0;  ///< victim policy evaluations
  double l2 = 0.0;    ///< realised ‖δ‖₂ of the delivered perturbation
  double linf = 0.0;  ///< realised ‖δ‖∞
  double loss = 0.0;       ///< attack loss (margin); valid iff has_loss
  bool has_loss = false;   ///< loss computed (attacked steps only)
  double det_score = 0.0;  ///< detector z-score; valid iff det_active
  bool det_flag = false;   ///< detector alarm state after this step
  bool det_active = false; ///< a detector was configured for this run
};

/// Buffers one record (thread-safe; no-op when the stream is disabled).
void forensics_record(const ForensicsStep& rec);

/// All buffered records as JSONL, sorted by (episode_key, seed, step).
std::string forensics_to_jsonl();
/// Writes forensics_to_jsonl to `path`; false on I/O failure.
bool write_forensics(const std::string& path);
/// Number of buffered records (tests).
std::size_t forensics_size();
/// Drops all buffered records (tests).
void forensics_reset();

/// Configures the process-exit JSONL export. A non-empty path enables the
/// stream, empty disables it. RLATTACK_FORENSICS_OUT is applied at startup;
/// bench drivers and rlattack_cli wire --forensics-out here.
void set_forensics_path(const std::string& path);
std::string forensics_path();

/// Detection-score configuration for the forensics stream, as plain numbers
/// (obs cannot depend on core::StatefulDetector). When `active`, the
/// pipeline builds a detector calibrated to (mean, stddev) per episode and
/// records its z-score/alarm per step.
struct ForensicsDetector {
  bool active = false;
  double mean = 0.0;
  double stddev = 0.0;
  int window = 20;
  int alarm_flags = 5;
  double z_threshold = 3.0;
};
void set_forensics_detector(const ForensicsDetector& det);
ForensicsDetector forensics_detector();

/// FNV-1a episode-key helpers: fold 64-bit words (seeds, bit-cast doubles,
/// hashed strings) into a stable identifier that survives reordering of the
/// episode *rows* but distinguishes episode *configurations*.
inline std::uint64_t forensics_key_begin() noexcept {
  return 14695981039346656037ULL;  // FNV-1a offset basis
}
inline std::uint64_t forensics_key_mix(std::uint64_t h,
                                       std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 1099511628211ULL;  // FNV-1a prime
  }
  return h;
}

}  // namespace rlattack::obs
