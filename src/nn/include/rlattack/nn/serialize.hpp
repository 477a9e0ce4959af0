// Binary parameter checkpointing. The benches train victim agents once and
// reuse them across experiment binaries via these checkpoints.
//
// Format (little-endian):
//   magic "RLAT" | u32 version | u64 param_count |
//   per param: u64 rank | u64 extents... | f32 data...
#pragma once

#include <string>

#include "rlattack/nn/layer.hpp"

namespace rlattack::nn {

/// Saves every parameter of `model` to `path`. Returns false on I/O error.
bool save_parameters(Layer& model, const std::string& path);

/// Loads parameters saved by save_parameters into `model`. The model must
/// have been constructed with identical architecture (same parameter count
/// and shapes). Returns false on I/O error, any mismatch, a truncated file
/// or bytes after the last tensor; the whole file is validated before any
/// parameter is written, so a false return leaves `model` unchanged.
bool load_parameters(Layer& model, const std::string& path);

/// Same pair over an explicit parameter set (multi-input models).
bool save_parameters(const std::vector<Param>& params,
                     const std::string& path);
bool load_parameters(const std::vector<Param>& params,
                     const std::string& path);

}  // namespace rlattack::nn
