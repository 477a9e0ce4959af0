#include "rlattack/util/check.hpp"

#include <cmath>

#include "rlattack/util/rng.hpp"

namespace rlattack::util {

CheckFailure::CheckFailure(const char* file, int line,
                           const std::string& message)
    : std::logic_error(std::string(file) + ":" + std::to_string(line) + ": " +
                       message),
      file_(file),
      line_(line) {}

void check_failed(const char* file, int line, const std::string& message) {
  throw CheckFailure(file, line, message);
}

std::size_t first_non_finite(std::span<const float> values) noexcept {
  for (std::size_t i = 0; i < values.size(); ++i)
    if (!std::isfinite(values[i])) return i;
  return static_cast<std::size_t>(-1);
}

bool all_finite(std::span<const float> values) noexcept {
  return first_non_finite(values) == static_cast<std::size_t>(-1);
}

std::string shape_string(const std::vector<std::size_t>& shape) {
  std::string out = "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

std::uint64_t hash_rng_stream(std::uint64_t seed, std::size_t draws) noexcept {
  Rng rng(seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < draws; ++i) {
    std::uint64_t word = rng();
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (word >> shift) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace rlattack::util
