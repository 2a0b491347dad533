// Shared support for the figure-reproduction bench binaries: banner
// printing, paper-scale vs CI-scale parameter selection, CSV output paths.
#pragma once

#include <string>
#include <vector>

#include "src/stats/stats.h"

namespace hmdsm::bench {

/// True when REPRO_FULL=1 is set: run the paper-scale parameters instead of
/// the CI-scale defaults. Each bench prints which mode is active.
bool FullScale();

/// Prints a standard banner naming the paper figure being reproduced.
void Banner(const std::string& figure, const std::string& description);

/// Overrides the bench output directory (the `--out` flag). Precedence:
/// SetCsvDir > HMDSM_CSV_DIR > the git-ignored default `results/`.
void SetCsvDir(std::string dir);

/// Returns the output path `dir/name.ext` for a bench artifact, creating
/// the output directory on first use. An empty directory (SetCsvDir("") or
/// HMDSM_CSV_DIR="") disables artifact output entirely (returns "").
std::string OutPath(const std::string& name, const std::string& ext);

/// Returns the output path for a CSV twin of a printed table.
std::string CsvPath(const std::string& name);

/// Returns the output path for the machine-readable JSON summary that
/// rides alongside a bench's CSV — the artifact cross-PR perf tracking
/// diffs.
std::string JsonPath(const std::string& name);

/// The CSV twin of stats::WriteRecorderJson's counter keys: appends one
/// column per stats::Ev, named by EvName (to a header) or holding `rec`'s
/// count (to a row), in enum order.
void AppendEvNames(std::vector<std::string>& header);
void AppendEvCounts(std::vector<std::string>& row, const stats::Recorder& rec);

}  // namespace hmdsm::bench
