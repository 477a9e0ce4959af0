#include "rlattack/util/env.hpp"

#include <cstdlib>

namespace rlattack::util::env {

namespace {

constexpr VarInfo kRegistry[] = {
#define RLATTACK_ENV_INFO(id, name, doc) {Var::id, name, doc},
    RLATTACK_ENV_VARS(RLATTACK_ENV_INFO)
#undef RLATTACK_ENV_INFO
};

}  // namespace

std::span<const VarInfo> registry() noexcept { return kRegistry; }

const char* name(Var v) noexcept {
  return kRegistry[static_cast<std::size_t>(v)].name;
}

const char* get(Var v) noexcept {
  // The tree's single environment read. rlattack never calls setenv, and
  // every knob is read during startup or first-use initialization before
  // worker threads exist (each caller's static-init idiom pins that), so
  // the getenv/setenv race concurrency-mt-unsafe warns about cannot occur.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  return std::getenv(name(v));
}

bool is_set(Var v) noexcept {
  const char* raw = get(v);
  return raw != nullptr && *raw != '\0';
}

std::optional<long> get_long(Var v) noexcept {
  const char* raw = get(v);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  char* end = nullptr;
  const long value = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0') return std::nullopt;
  return value;
}

std::optional<double> get_double(Var v) noexcept {
  const char* raw = get(v);
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(raw, &end);
  if (end == raw || *end != '\0') return std::nullopt;
  return value;
}

}  // namespace rlattack::util::env
