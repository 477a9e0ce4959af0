// Checked-build invariant layer (RLATTACK_CHECKED).
//
// The repo's headline guarantees — bit-identical experiment rows at any
// thread count, exact FGSM/PGD gradients through the hand-rolled autodiff
// substrate, perturbations that actually respect their declared budget —
// are enforced by parity tests after the fact. This header adds the
// point-of-occurrence half: cheap-to-write, expensive-to-run invariant
// assertions that are compiled in only when the tree is configured with
// -DRLATTACK_CHECKED=ON (which defines the RLATTACK_CHECKED macro) and
// cost nothing in release builds.
//
// Usage pattern: guard instrumentation with `if constexpr (kCheckedBuild)`
// so the checking code always *compiles* (no bit-rot in release trees) but
// is dead-stripped when the macro is absent. A failed invariant throws
// CheckFailure — an exception rather than an abort so the checked test
// suite (tests/checked_invariants_test.cpp) can assert that deliberately
// broken inputs trip the right diagnostic.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace rlattack::util {

/// True when this translation unit was compiled with -DRLATTACK_CHECKED=ON.
/// Prefer `if constexpr (kCheckedBuild)` over #ifdef at instrumentation
/// sites: the guarded code still type-checks in release builds.
#if defined(RLATTACK_CHECKED)
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

/// Thrown when a checked-build invariant fails. Derives from logic_error:
/// every trip is a programming bug (broken shape contract, NaN leak,
/// budget violation), never a recoverable runtime condition.
class CheckFailure : public std::logic_error {
 public:
  CheckFailure(const char* file, int line, const std::string& message);

  const char* file() const noexcept { return file_; }
  int line() const noexcept { return line_; }

 private:
  const char* file_;
  int line_;
};

/// Throws CheckFailure with a "file:line: message" diagnostic. Out of line
/// so the cold path never bloats instrumented call sites.
[[noreturn]] void check_failed(const char* file, int line,
                               const std::string& message);

/// Index of the first NaN/Inf element, or SIZE_MAX when all are finite.
std::size_t first_non_finite(std::span<const float> values) noexcept;

/// True when every element is finite (no NaN, no +/-Inf).
bool all_finite(std::span<const float> values) noexcept;

/// "[2, 3, 4]" formatting for diagnostics (mirrors Tensor::shape_string
/// without depending on the nn library).
std::string shape_string(const std::vector<std::size_t>& shape);

/// Hash of the first `draws` outputs of an Rng seeded with `seed`. Used by
/// the episode driver to cross-check that per-job RNG streams are pure
/// functions of the job seed regardless of which host runs the job.
std::uint64_t hash_rng_stream(std::uint64_t seed, std::size_t draws) noexcept;

}  // namespace rlattack::util

/// Asserts `cond` in checked builds; throws rlattack::util::CheckFailure
/// with `message` (any expression convertible to std::string) on failure.
/// In release builds the condition and message are type-checked but never
/// evaluated.
#if defined(RLATTACK_CHECKED)
#define RLATTACK_CHECK(cond, message)                                \
  do {                                                               \
    if (!(cond))                                                     \
      ::rlattack::util::check_failed(__FILE__, __LINE__, (message)); \
  } while (0)
#else
#define RLATTACK_CHECK(cond, message)   \
  do {                                  \
    (void)sizeof((cond) ? true : false); \
  } while (0)
#endif
