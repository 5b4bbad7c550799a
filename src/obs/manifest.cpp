#include "obs/manifest.hpp"

#include <cstdio>
#include <stdexcept>

#include "obs/config.hpp"
#include "obs/json.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

// Configure-time stamps (src/obs/CMakeLists.txt): the git sha of the
// checked-out tree and the cache values of the sanitizer/-Werror
// switches, which have no runtime macro of their own.
#ifndef NASHLB_GIT_SHA
#define NASHLB_GIT_SHA "unknown"
#endif
#ifndef NASHLB_SANITIZE_NAME
#define NASHLB_SANITIZE_NAME "OFF"
#endif
#ifndef NASHLB_WERROR_FLAG
#define NASHLB_WERROR_FLAG 0
#endif

namespace nashlb::obs {

RunManifest RunManifest::collect() {
  RunManifest m;
  m.git_sha = NASHLB_GIT_SHA;
  m.obs_enabled = kEnabled;
  m.check_enabled = util::kCheckEnabled;
  m.sanitize = NASHLB_SANITIZE_NAME;
  m.werror = NASHLB_WERROR_FLAG != 0;
  m.threads = util::resolve_threads(0);
  return m;
}

void RunManifest::set(const std::string& key, const std::string& value) {
  for (auto& kv : extras) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  extras.emplace_back(key, value);
}

void RunManifest::set(const std::string& key, std::int64_t value) {
  set(key, json_number(value));
}

void RunManifest::set(const std::string& key, double value) {
  set(key, json_number(value));
}

std::uint64_t RunManifest::config_hash() const {
  // FNV-1a, 64-bit: stable across platforms, good enough to tell two
  // run configurations apart at a glance.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](const std::string& s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xffU;  // field separator so ("ab","c") != ("a","bc")
    h *= 1099511628211ULL;
  };
  mix(git_sha);
  mix(obs_enabled ? "obs=1" : "obs=0");
  mix(check_enabled ? "check=1" : "check=0");
  mix(sanitize);
  mix(werror ? "werror=1" : "werror=0");
  mix(std::to_string(threads));
  for (const auto& kv : extras) {
    mix(kv.first);
    mix(kv.second);
  }
  return h;
}

std::string RunManifest::to_json() const {
  std::string out = "{";
  out += "\"git_sha\":" + json_quote(git_sha);
  out += ",\"obs\":" + std::string(obs_enabled ? "true" : "false");
  out += ",\"check\":" + std::string(check_enabled ? "true" : "false");
  out += ",\"sanitize\":" + json_quote(sanitize);
  out += ",\"werror\":" + std::string(werror ? "true" : "false");
  out += ",\"threads\":" + json_number(static_cast<std::uint64_t>(threads));
  out += ",\"config_hash\":" + json_quote([this] {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(config_hash()));
    return std::string(buf);
  }());
  out += ",\"extras\":{";
  for (std::size_t k = 0; k < extras.size(); ++k) {
    if (k != 0) out += ",";
    out += json_quote(extras[k].first) + ":" + json_quote(extras[k].second);
  }
  out += "}}";
  return out;
}

void RunManifest::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("RunManifest: cannot open " + path);
  }
  const std::string body = to_json();
  const bool written =
      std::fputs(body.c_str(), out) >= 0 && std::fputc('\n', out) != EOF;
  // fclose flushes the buffer, so a full disk usually fails here.
  if (std::fclose(out) != 0 || !written) {
    throw std::runtime_error("RunManifest: cannot write " + path);
  }
}

}  // namespace nashlb::obs
