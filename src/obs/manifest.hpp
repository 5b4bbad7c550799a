// Run manifests: the provenance stamp for bench output.
//
// A CSV number is only comparable to another run's if
// the two runs were built and configured the same way. RunManifest
// captures the build identity (git sha baked at configure time, the
// OBS/CHECK/SANITIZE/WERROR switches), the resolved thread count, and
// free-form run parameters (seeds, instance shape) as ordered key/value
// extras, plus an FNV-1a hash over the whole record so two manifests
// can be compared with one number. Every bench writes its manifest next
// to its CSVs (bench::write_manifest), and tools/nashlb_report.py
// renders and diffs them.
//
// Deliberately NOT twinned: a manifest must exist precisely so an
// -DNASHLB_OBS=OFF run is labeled as such, and it costs nothing on any
// hot path (it is built once per bench process).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace nashlb::obs {

struct RunManifest {
  std::string git_sha = "unknown";
  bool obs_enabled = false;
  bool check_enabled = false;
  std::string sanitize = "OFF";
  bool werror = false;
  std::size_t threads = 0;
  /// Run-specific parameters (seeds, config), in insertion order.
  std::vector<std::pair<std::string, std::string>> extras;

  /// Fills the build-identity fields from the compiled-in configuration
  /// and `threads` from util::resolve_threads(0).
  [[nodiscard]] static RunManifest collect();

  /// Appends (or overwrites) an extra. Values are stored as strings;
  /// numeric overloads format deterministically.
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, double value);

  /// FNV-1a over the canonical serialization of every field above —
  /// equal hashes mean identical build identity and run parameters.
  [[nodiscard]] std::uint64_t config_hash() const;

  /// One JSON object (no trailing newline) with the fields above plus
  /// "config_hash"; extras serialize as a nested "extras" object.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() plus a newline. Throws std::runtime_error if the
  /// file cannot be opened or written.
  void write_json(const std::string& path) const;
};

}  // namespace nashlb::obs
