// Central registry of every RLATTACK_* environment variable, and the one
// audited read path for all of them.
//
// Why a registry instead of scattered std::getenv calls:
//  - Drift. Env knobs used to be introduced by whichever TU needed one and
//    documented (or not) by hand; the README and the code disagreed within
//    a few PRs. The registry is the single source of truth: the
//    rlattack-env-registry clang-tidy check (tools/rlattack-tidy) rejects
//    any getenv("RLATTACK_*") literal that is not listed here, and the
//    util_test registry suite pins naming and uniqueness.
//  - Concurrency. getenv is formally not thread-safe against setenv.
//    rlattack never calls setenv and reads every knob once during startup
//    or first-use initialization, before worker threads exist — but that
//    argument needs auditing, and auditing one TU (env.cpp) beats auditing
//    ten. env.cpp carries the tree's only NOLINT(concurrency-mt-unsafe);
//    the blanket .clang-tidy suppression is gone.
//
// Adding a variable: add an enumerator, add its row to RLATTACK_ENV_VARS
// (name + one-line doc — the README table is generated from the same
// wording), and read it through env::get / env::get_long / env::get_double.
// A raw getenv of an RLATTACK_* literal anywhere else fails the tidy-plugin
// check config.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

namespace rlattack::util::env {

// X-macro registry: X(enumerator, "NAME", "doc").  Script-only variables
// (consumed by run_benches.sh / run_checks.sh, never by C++ code) are listed
// too — the registry documents the whole env surface, not just getenv sites.
#define RLATTACK_ENV_VARS(X)                                                   \
  X(kThreads, "RLATTACK_THREADS",                                              \
    "worker count of util::ThreadPool::global(); default "                     \
    "hardware_concurrency")                                                    \
  X(kLogLevel, "RLATTACK_LOG_LEVEL",                                           \
    "startup log level: debug|info|warn|error or 0-3; default info")           \
  X(kSimd, "RLATTACK_SIMD",                                                    \
    "GEMM micro-kernel selection: avx2|scalar|auto; default auto")             \
  X(kMetrics, "RLATTACK_METRICS",                                              \
    "off|0|false disables telemetry recording at startup")                     \
  X(kMetricsOut, "RLATTACK_METRICS_OUT",                                       \
    "path for the process-exit METRICS JSON export")                           \
  X(kBenchScale, "RLATTACK_BENCH_SCALE",                                       \
    "multiplier on bench grid sizes (episodes/epochs); default 1.0")           \
  X(kTrace, "RLATTACK_TRACE",                                                  \
    "1 enables the event-tracing layer (timeline ring buffers) at startup")    \
  X(kTraceOut, "RLATTACK_TRACE_OUT",                                           \
    "path for the process-exit Chrome/Perfetto trace JSON (implies "           \
    "RLATTACK_TRACE=1 when that is unset)")                                    \
  X(kForensicsOut, "RLATTACK_FORENSICS_OUT",                                   \
    "path for the per-step attack forensics JSONL export (enables the "        \
    "stream)")

/// One enumerator per registered variable.
enum class Var {
#define RLATTACK_ENV_ENUM(id, name, doc) id,
  RLATTACK_ENV_VARS(RLATTACK_ENV_ENUM)
#undef RLATTACK_ENV_ENUM
};

struct VarInfo {
  Var var;
  const char* name;  ///< the literal environment-variable name
  const char* doc;   ///< one line, mirrored into the README table
};

/// Every registered variable, in declaration order.
std::span<const VarInfo> registry() noexcept;

/// The environment-variable name of `v`.
const char* name(Var v) noexcept;

/// Raw value (nullptr when unset). The only std::getenv call in the tree
/// sits behind this function.
const char* get(Var v) noexcept;

/// True when the variable is set to a non-empty value.
bool is_set(Var v) noexcept;

/// Strictly parsed integer: the full value must be a base-10 integer,
/// otherwise (and when unset/empty) nullopt.
std::optional<long> get_long(Var v) noexcept;

/// Strictly parsed double: the full value must parse, otherwise nullopt.
std::optional<double> get_double(Var v) noexcept;

}  // namespace rlattack::util::env
