#include "common.hpp"

#include <cstdio>
#include <filesystem>

namespace nashlb::bench {

void banner(const std::string& id, const std::string& title,
            const std::string& setup) {
  std::printf("==============================================================\n");
  std::printf("%s  %s\n", id.c_str(), title.c_str());
  std::printf("setup: %s\n", setup.c_str());
  std::printf("==============================================================\n");
  // Every bench run gets a provenance sidecar up front; benches with
  // run-specific extras re-stamp the same file once they know them.
  write_manifest(run_manifest(id), id);
}

std::unique_ptr<util::CsvWriter> csv(
    const std::string& name, const std::vector<std::string>& header) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create bench_results/: %s\n",
                 ec.message().c_str());
    return nullptr;
  }
  try {
    return std::make_unique<util::CsvWriter>("bench_results/" + name + ".csv",
                                             header);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "warning: %s\n", ex.what());
    return nullptr;
  }
}

std::string num(double v) { return util::format_sig(v, 4); }

obs::RunManifest run_manifest(const std::string& id) {
  obs::RunManifest manifest = obs::RunManifest::collect();
  manifest.set("bench", id);
  return manifest;
}

void write_manifest(const obs::RunManifest& manifest, const std::string& id) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  if (ec) {
    std::fprintf(stderr, "warning: cannot create bench_results/: %s\n",
                 ec.message().c_str());
    return;
  }
  const std::string path = "bench_results/manifest_" + id + ".json";
  try {
    manifest.write_json(path);
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "warning: %s\n", ex.what());
    return;
  }
  std::printf("manifest: %s (git %s, obs=%d check=%d sanitize=%s threads=%zu)\n",
              path.c_str(), manifest.git_sha.c_str(),
              manifest.obs_enabled ? 1 : 0, manifest.check_enabled ? 1 : 0,
              manifest.sanitize.c_str(), manifest.threads);
}

}  // namespace nashlb::bench
