// Episode-trace serialization: lets the attacker's observation phase run in
// the field (record traces) and the approximator training run offline —
// the workflow split the paper's threat model implies.
//
// Format (little-endian binary):
//   magic "RLTR" | u32 version | u64 episode_count |
//   per episode: u64 step_count |
//     per step: u64 obs_size | f32 obs... | u64 action | f64 reward |
//               u8 done
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "rlattack/env/environment.hpp"

namespace rlattack::env {

/// Writes episode traces to `path`. Returns false on I/O failure.
bool save_episodes(const std::vector<Episode>& episodes,
                   const std::string& path);

/// Loads traces written by save_episodes. Returns std::nullopt on I/O or
/// format errors, including counts the file cannot hold and bytes after
/// the last episode; a corrupt file never throws.
std::optional<std::vector<Episode>> load_episodes(const std::string& path);

}  // namespace rlattack::env
