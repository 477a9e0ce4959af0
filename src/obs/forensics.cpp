#include "rlattack/obs/forensics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <vector>

#include "rlattack/obs/json_util.hpp"
#include "rlattack/util/env.hpp"

namespace rlattack::obs {

namespace {

// Leaked function-local statics (see metrics.cpp): the atexit export hook
// and any static-destruction-time recorder must always see live objects.
std::mutex& forensics_mutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::vector<ForensicsStep>& forensics_buffer() {
  static std::vector<ForensicsStep>* v = new std::vector<ForensicsStep>;
  return *v;
}

std::string& forensics_path_storage() {
  static std::string* s = new std::string;
  return *s;
}

ForensicsDetector& forensics_detector_storage() {
  static ForensicsDetector* d = new ForensicsDetector;
  return *d;
}

std::once_flag& forensics_hook_once() {
  static std::once_flag* f = new std::once_flag;
  return *f;
}

void forensics_export_at_exit() {
  const std::string path = forensics_path();
  if (path.empty()) return;
  write_forensics(path);
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void append_record(std::ostringstream& out, const ForensicsStep& r) {
  out << "{\"episode\": \"" << hex16(r.episode_key)
      << "\", \"seed\": " << r.seed << ", \"step\": " << r.step
      << ", \"eligible\": " << (r.eligible ? "true" : "false")
      << ", \"attacked\": " << (r.attacked ? "true" : "false")
      << ", \"predicted\": " << r.predicted << ", \"action\": " << r.action
      << ", \"agree\": " << r.agree << ", \"queries\": {\"forward\": "
      << r.model_forward << ", \"gradient\": " << r.model_gradient
      << ", \"victim\": " << r.victim_queries
      << "}, \"l2\": " << detail::fmt_double(r.l2)
      << ", \"linf\": " << detail::fmt_double(r.linf);
  if (r.has_loss) out << ", \"loss\": " << detail::fmt_double(r.loss);
  if (r.det_active)
    out << ", \"det\": {\"score\": " << detail::fmt_double(r.det_score)
        << ", \"flag\": " << (r.det_flag ? "true" : "false") << "}";
  out << "}\n";
}

}  // namespace

void forensics_record(const ForensicsStep& rec) {
  if (!forensics_detail::forensics_on()) return;
  std::lock_guard<std::mutex> lock(forensics_mutex());
  forensics_buffer().push_back(rec);
}

std::string forensics_to_jsonl() {
  std::vector<ForensicsStep> records;
  {
    std::lock_guard<std::mutex> lock(forensics_mutex());
    records = forensics_buffer();
  }
  // Rendezvous fibers append in interleaved step order, a planner-less loop
  // episode by episode; the export sorts both into configuration order.
  std::stable_sort(records.begin(), records.end(),
                   [](const ForensicsStep& a, const ForensicsStep& b) {
                     if (a.episode_key != b.episode_key)
                       return a.episode_key < b.episode_key;
                     if (a.seed != b.seed) return a.seed < b.seed;
                     return a.step < b.step;
                   });
  std::ostringstream out;
  for (const ForensicsStep& r : records) append_record(out, r);
  return out.str();
}

bool write_forensics(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << forensics_to_jsonl();
  return static_cast<bool>(out);
}

std::size_t forensics_size() {
  std::lock_guard<std::mutex> lock(forensics_mutex());
  return forensics_buffer().size();
}

void forensics_reset() {
  std::lock_guard<std::mutex> lock(forensics_mutex());
  forensics_buffer().clear();
}

void set_forensics_path(const std::string& path) {
  {
    std::lock_guard<std::mutex> lock(forensics_mutex());
    forensics_path_storage() = path;
  }
  forensics_detail::g_forensics_enabled.store(!path.empty(),
                                              std::memory_order_relaxed);
  if (!path.empty())
    std::call_once(forensics_hook_once(),
                   [] { std::atexit(forensics_export_at_exit); });
}

std::string forensics_path() {
  std::lock_guard<std::mutex> lock(forensics_mutex());
  return forensics_path_storage();
}

void set_forensics_detector(const ForensicsDetector& det) {
  std::lock_guard<std::mutex> lock(forensics_mutex());
  forensics_detector_storage() = det;
}

ForensicsDetector forensics_detector() {
  std::lock_guard<std::mutex> lock(forensics_mutex());
  return forensics_detector_storage();
}

namespace {
// Apply RLATTACK_FORENSICS_OUT at static-init time so the stream is live
// before main() for any binary linking obs.
const bool g_forensics_boot = [] {
  if (const char* out = util::env::get(util::env::Var::kForensicsOut))
    if (*out != '\0') set_forensics_path(out);
  return true;
}();
}  // namespace

}  // namespace rlattack::obs
