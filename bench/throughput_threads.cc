// Wall-clock throughput of the threads backend — the first *measured*
// (not modeled) performance numbers in the repo.
//
// Runs the six canonical sharing patterns on runtime::Runtime (one
// dispatcher thread + DSM agent per node, one OS thread per worker) and
// reports real ops/sec, wire traffic, and migrations. The sim backend runs
// the identical scenario alongside and its checksum is cross-checked, so
// every throughput row is also a data-integrity witness. Jitter delay ops
// are stripped from the programs: on the threads backend they would be
// real sleeps and this bench measures protocol throughput, not sleeping.
// With --inject-latency [--inject-scale=F] every delivery is held until its
// Hockney deadline, so the reported wall-clock times sit in the modeled
// network regime instead of raw channel speed.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/stats/json.h"
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/table.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace {

using hmdsm::CsvWriter;
using hmdsm::FmtF;
using hmdsm::FmtI;
using hmdsm::Table;
namespace workload = hmdsm::workload;
namespace gos = hmdsm::gos;

workload::Scenario StripDelays(workload::Scenario s) {
  for (workload::WorkerSpec& w : s.workers) {
    std::vector<workload::Op> kept;
    kept.reserve(w.program.size());
    for (const workload::Op& op : w.program)
      if (op.kind != workload::OpKind::kDelay) kept.push_back(op);
    w.program = std::move(kept);
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const hmdsm::Flags flags(argc, argv);
  if (flags.Has("out")) hmdsm::bench::SetCsvDir(flags.Get("out"));
  hmdsm::bench::Banner(
      "threads throughput",
      "wall-clock ops/sec of the DSM protocol on real OS threads");

  workload::PatternParams params;
  params.nodes = 8;
  params.objects = 4;
  params.object_bytes = 256;
  params.repetitions = hmdsm::bench::FullScale() ? 64 : 12;
  params.seed = 1;

  gos::VmOptions sim_opts;
  sim_opts.nodes = params.nodes;
  sim_opts.dsm.policy = "AT";
  gos::VmOptions thr_opts = sim_opts;
  thr_opts.backend = gos::Backend::kThreads;
  thr_opts.inject_latency = flags.GetBool("inject-latency", false);
  thr_opts.inject_scale = flags.GetDouble("inject-scale", 1.0);

  std::printf("nodes=%u objects=%u bytes=%u reps=%u policy=AT "
              "(jitter delays stripped)%s\n\n",
              params.nodes, params.objects, params.object_bytes,
              params.repetitions,
              thr_opts.inject_latency
                  ? " + Hockney latency injection"
                  : "");

  Table t({"pattern", "ops", "wall ms", "ops/sec", "msgs", "migrations",
           "hol", "data"});
  CsvWriter csv(hmdsm::bench::CsvPath("throughput_threads"));
  std::vector<std::string> header = {"pattern", "ops", "wall_seconds",
                                     "ops_per_sec", "messages"};
  hmdsm::bench::AppendEvNames(header);
  header.push_back("checksum_matches_sim");
  csv.Row(header);

  struct Row {
    std::string pattern;
    workload::ScenarioResult thr;
    bool match = false;
  };
  std::vector<Row> rows;
  const auto ops_per_sec = [](const workload::ScenarioResult& r) {
    return r.report.seconds > 0
               ? static_cast<double>(r.ops_executed) / r.report.seconds
               : 0.0;
  };

  for (const std::string& pattern : workload::PatternNames()) {
    params.pattern = pattern;
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(params));

    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);
    Row row{pattern, workload::RunScenario(thr_opts, scenario)};
    row.match = sim.checksum == row.thr.checksum;
    const gos::RunReport& rep = row.thr.report;
    t.AddRow({row.pattern, FmtI(static_cast<long long>(row.thr.ops_executed)),
              FmtF(rep.seconds * 1e3, 2),
              FmtI(static_cast<long long>(ops_per_sec(row.thr))),
              FmtI(static_cast<long long>(rep.messages)),
              FmtI(static_cast<long long>(rep.migrations)),
              FmtI(static_cast<long long>(
                  rep.totals.Count(hmdsm::stats::Ev::kHolInherited))),
              row.match ? "ok" : "MISMATCH"});
    std::vector<std::string> cells = {
        row.pattern, std::to_string(row.thr.ops_executed),
        std::to_string(rep.seconds), std::to_string(ops_per_sec(row.thr)),
        std::to_string(rep.messages)};
    hmdsm::bench::AppendEvCounts(cells, rep.totals);
    cells.push_back(row.match ? "1" : "0");
    csv.Row(cells);
    rows.push_back(std::move(row));
  }

  t.Print(std::cout);

  // Machine-readable twin of the table, for cross-PR perf tracking.
  const std::string json_path =
      hmdsm::bench::JsonPath("throughput_threads");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    hmdsm::JsonWriter j(os);
    j.BeginObject();
    j.Key("bench").String("throughput_threads");
    j.Key("nodes").Uint(params.nodes);
    j.Key("objects").Uint(params.objects);
    j.Key("object_bytes").Uint(params.object_bytes);
    j.Key("repetitions").Uint(params.repetitions);
    j.Key("inject_latency").Bool(thr_opts.inject_latency);
    j.Key("inject_scale").Double(thr_opts.inject_scale);
    j.Key("rows").BeginArray();
    for (const Row& r : rows) {
      j.BeginObject();
      j.Key("pattern").String(r.pattern);
      j.Key("ops").Uint(r.thr.ops_executed);
      j.Key("wall_seconds").Double(r.thr.report.seconds);
      j.Key("ops_per_sec").Double(ops_per_sec(r.thr));
      j.Key("messages").Uint(r.thr.report.messages);
      j.Key("checksum_matches_sim").Bool(r.match);
      // Every registry counter plus the wall-clock latency quantiles from
      // the per-node histograms (empty histograms are omitted).
      hmdsm::stats::WriteRecorderJson(j, r.thr.report.totals);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
    std::printf("json summary -> %s\n", json_path.c_str());
  }
  std::printf("\n(wall-clock, %zu dispatcher threads + 1 thread per worker; "
              "sim column cross-checked via checksum)\n",
              static_cast<std::size_t>(params.nodes));
  return 0;
}
