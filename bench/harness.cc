#include "bench/harness.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>

namespace hmdsm::bench {

namespace {
std::optional<std::string> g_csv_dir;  // SetCsvDir override
}  // namespace

bool FullScale() {
  const char* env = std::getenv("REPRO_FULL");
  return env != nullptr && env[0] == '1';
}

void Banner(const std::string& figure, const std::string& description) {
  std::cout << "==============================================================="
               "=================\n"
            << figure << " — " << description << "\n"
            << "Fang, Wang, Zhu, Lau: \"A Novel Adaptive Home Migration "
               "Protocol in Home-based DSM\" (CLUSTER 2004)\n"
            << "scale: " << (FullScale() ? "paper (REPRO_FULL=1)" : "CI default")
            << "\n"
            << "==============================================================="
               "=================\n";
}

void SetCsvDir(std::string dir) { g_csv_dir = std::move(dir); }

std::string OutPath(const std::string& name, const std::string& ext) {
  std::string d;
  if (g_csv_dir.has_value()) {
    d = *g_csv_dir;
  } else if (const char* env = std::getenv("HMDSM_CSV_DIR");
             env != nullptr) {
    d = env;
  } else {
    // Keep bench artifacts out of the repo root: results/ is git-ignored.
    d = "results";
  }
  if (d.empty()) return {};  // artifact output disabled
  std::error_code ec;
  std::filesystem::create_directories(d, ec);  // best effort; writer no-ops
  if (d.back() != '/') d.push_back('/');
  return d + name + "." + ext;
}

std::string CsvPath(const std::string& name) { return OutPath(name, "csv"); }

std::string JsonPath(const std::string& name) {
  return OutPath(name, "json");
}

void AppendEvNames(std::vector<std::string>& header) {
  for (std::size_t e = 0; e < stats::kNumEvs; ++e)
    header.emplace_back(stats::EvName(static_cast<stats::Ev>(e)));
}

void AppendEvCounts(std::vector<std::string>& row,
                    const stats::Recorder& rec) {
  for (std::size_t e = 0; e < stats::kNumEvs; ++e)
    row.push_back(std::to_string(rec.Count(static_cast<stats::Ev>(e))));
}

}  // namespace hmdsm::bench
