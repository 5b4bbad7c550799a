// Shared scaffolding for the figure/table reproduction binaries.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/manifest.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace nashlb::bench {

/// Prints the standard experiment banner: id, paper artifact, setup.
void banner(const std::string& id, const std::string& title,
            const std::string& setup);

/// The bench's provenance record: obs::RunManifest::collect() plus a
/// "bench" extra naming the experiment. Benches add their run
/// parameters (seeds, instance shape) with set() before stamping.
obs::RunManifest run_manifest(const std::string& id);

/// Writes `manifest` to bench_results/manifest_<id>.json (creating the
/// directory if needed; warning on stderr instead of a throw, like
/// csv()) and echoes the config hash to stdout — every bench stamps its
/// output files' provenance this way.
void write_manifest(const obs::RunManifest& manifest, const std::string& id);

/// Opens bench_results/<name>.csv (creating the directory if needed) and
/// returns the writer; returns nullptr (with a warning on stderr) if the
/// directory cannot be created — benches still print to stdout.
std::unique_ptr<util::CsvWriter> csv(const std::string& name,
                                     const std::vector<std::string>& header);

/// Formats a double with 4 significant digits (bench table convention).
std::string num(double v);

}  // namespace nashlb::bench
