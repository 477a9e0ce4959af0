#include "rlattack/env/trace_io.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>

namespace rlattack::env {

namespace {
constexpr char kMagic[4] = {'R', 'L', 'T', 'R'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
bool write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
  return static_cast<bool>(out);
}

template <typename T>
bool read_pod(std::ifstream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  return static_cast<bool>(in);
}
}  // namespace

bool save_episodes(const std::vector<Episode>& episodes,
                   const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  if (!write_pod(out, kVersion)) return false;
  if (!write_pod(out, static_cast<std::uint64_t>(episodes.size())))
    return false;
  for (const Episode& episode : episodes) {
    if (!write_pod(out, static_cast<std::uint64_t>(episode.steps.size())))
      return false;
    for (const Transition& step : episode.steps) {
      if (!write_pod(out, static_cast<std::uint64_t>(step.observation.size())))
        return false;
      auto data = step.observation.data();
      out.write(reinterpret_cast<const char*>(data.data()),
                static_cast<std::streamsize>(data.size() * sizeof(float)));
      if (!write_pod(out, static_cast<std::uint64_t>(step.action)))
        return false;
      if (!write_pod(out, step.reward)) return false;
      const std::uint8_t done = step.done ? 1 : 0;
      if (!write_pod(out, done)) return false;
    }
  }
  return static_cast<bool>(out);
}

std::optional<std::vector<Episode>> load_episodes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    return std::nullopt;
  std::uint32_t version = 0;
  if (!read_pod(in, version) || version != kVersion) return std::nullopt;
  std::uint64_t episode_count = 0;
  if (!read_pod(in, episode_count)) return std::nullopt;

  // Counts come from the file, so nothing is reserved from them: a corrupt
  // count fails at the first missing record instead of in the allocator.
  std::vector<Episode> episodes;
  for (std::uint64_t e = 0; e < episode_count; ++e) {
    std::uint64_t steps = 0;
    if (!read_pod(in, steps)) return std::nullopt;
    Episode& episode = episodes.emplace_back();
    for (std::uint64_t t = 0; t < steps; ++t) {
      std::uint64_t obs_size = 0;
      if (!read_pod(in, obs_size)) return std::nullopt;
      if (obs_size == 0 || obs_size > (1ull << 24)) return std::nullopt;
      std::vector<float> data(obs_size);
      in.read(reinterpret_cast<char*>(data.data()),
              static_cast<std::streamsize>(obs_size * sizeof(float)));
      if (!in) return std::nullopt;
      Transition step;
      step.observation =
          nn::Tensor({static_cast<std::size_t>(obs_size)}, std::move(data));
      std::uint64_t action = 0;
      if (!read_pod(in, action)) return std::nullopt;
      step.action = static_cast<std::size_t>(action);
      if (!read_pod(in, step.reward)) return std::nullopt;
      std::uint8_t done = 0;
      if (!read_pod(in, done)) return std::nullopt;
      step.done = done != 0;
      episode.steps.push_back(std::move(step));
    }
  }
  if (in.peek() != std::ifstream::traits_type::eof()) return std::nullopt;
  return episodes;
}

}  // namespace rlattack::env
