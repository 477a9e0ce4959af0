#include "rlattack/nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

namespace rlattack::nn {

namespace {
constexpr char kMagic[4] = {'R', 'L', 'A', 'T'};
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

bool save_parameters(Layer& model, const std::string& path) {
  return save_parameters(model.params(), path);
}

bool load_parameters(Layer& model, const std::string& path) {
  return load_parameters(model.params(), path);
}

bool save_parameters(const std::vector<Param>& params,
                     const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  if (!write_pod(out, kVersion)) return false;
  if (!write_pod(out, static_cast<std::uint64_t>(params.size()))) return false;
  for (const Param& p : params) {
    const auto& shape = p.value->shape();
    if (!write_pod(out, static_cast<std::uint64_t>(shape.size()))) return false;
    for (std::size_t d : shape)
      if (!write_pod(out, static_cast<std::uint64_t>(d))) return false;
    auto data = p.value->data();
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size() * sizeof(float)));
    if (!out) return false;
  }
  return true;
}

bool load_parameters(const std::vector<Param>& params,
                     const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return false;
  std::uint32_t version = 0;
  if (!read_pod(in, version) || version != kVersion) return false;
  std::uint64_t count = 0;
  if (!read_pod(in, count)) return false;
  if (count != params.size()) return false;
  // Stage every tensor and reject trailing bytes before writing any
  // parameter, so a truncated or padded file leaves the model unchanged.
  std::vector<std::vector<float>> staged;
  staged.reserve(params.size());
  for (const Param& p : params) {
    std::uint64_t rank = 0;
    if (!read_pod(in, rank)) return false;
    const auto& shape = p.value->shape();
    if (rank != shape.size()) return false;
    for (std::size_t d = 0; d < rank; ++d) {
      std::uint64_t extent = 0;
      if (!read_pod(in, extent) || extent != shape[d]) return false;
    }
    std::vector<float>& data = staged.emplace_back(p.value->size());
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
    if (!in) return false;
  }
  if (in.peek() != std::ifstream::traits_type::eof()) return false;
  for (std::size_t i = 0; i < params.size(); ++i)
    std::copy(staged[i].begin(), staged[i].end(),
              params[i].value->data().begin());
  return true;
}

}  // namespace rlattack::nn
