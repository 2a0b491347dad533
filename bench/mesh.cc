// bench_mesh — the paper workloads over the real multi-process TCP mesh.
//
// Everything measured elsewhere in the repo is either modeled (sim) or
// in-process (threads); this bench forks one OS process per rank, wires
// them into the netio TCP mesh, and measures the fig6 scenario patterns
// (plus a fig2-family ASP run) end to end: wall-clock throughput,
// per-message overhead, and — the point of the adaptive frame batching —
// how many syscall-level socket writes the whole cluster issued for how
// many wire frames (every rank's transport folds its counters into the
// coordinator's stats gather, so the totals cover all ranks, not just the
// lead). Each workload runs through a wire ablation:
//
//   * threads + Hockney latency injection — the modeled network regime the
//     sockets numbers are compared against (same scenario, same checksum);
//   * sockets_batch — adaptive batching, deltas and shm off (the PR-9 wire,
//     the baseline the hot path is measured against);
//   * sockets_nobatch — one write per frame, the v1 wire;
//   * sockets_delta / sockets_shm / sockets_delta_shm — wire delta encoding
//     and the same-host shared-memory rings, each alone and together (the
//     finished hot path). Smoke keeps the endpoints: baseline + delta_shm.
//
// Checksums must agree with the sim run everywhere: every throughput row
// is also a cross-backend data-integrity witness. The lead rank's report
// travels back to the fork parent through netio::RunLocalMeshForLead (as
// in the cross-backend conformance suite).
//
// --smoke runs a two-pattern subset at tiny scale for CI; --nodes/--reps/
// --objects/--bytes override the defaults; CSV + JSON land in results/.
// --trace-out=FILE captures a Chrome/Perfetto trace of the first sockets
// run (one shard per rank, merged by the fork parent).
//
// --scaling runs the order-of-magnitude sweep instead: the hotspot pattern
// at 4/8/16/32/64/128 ranks, hosting multiple ranks per OS process so the
// process count stays at most 8 regardless of rank count (the epoll
// reactor keeps the per-process thread count flat too). ops/s and us/msg
// per rank count land in results/scaling.json.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/apps/asp.h"
#include "src/netio/launcher.h"
#include "src/stats/json.h"
#include "src/trace/trace.h"
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/serde.h"
#include "src/util/table.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace {

using namespace hmdsm;

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

/// One wire configuration of the sockets transport under measurement.
struct WireConfig {
  std::string name;  // the row's config label
  bool batch = true;
  bool wire_delta = false;
  bool shm = false;
};

/// Forks a localhost mesh, runs `run` in every rank (SPMD), and returns the
/// lead's result (its report's counters are cluster totals: every rank's
/// transport folds its window into the coordinator's stats gather). False
/// when any rank failed. With `trace_path` set, every rank writes a Chrome
/// trace shard on teardown and the parent merges them into one
/// Perfetto-loadable file.
bool RunOnMesh(
    std::size_t nodes, std::size_t ranks_per_proc, std::size_t io_threads,
    const WireConfig& wire, const std::string& trace_path,
    const std::function<workload::ScenarioResult(gos::VmOptions)>& run,
    workload::ScenarioResult* out) {
  Bytes blob;
  const int status = netio::RunLocalMeshForLead(
      nodes, ranks_per_proc,
      [&](const netio::LocalRank& self) {
        gos::VmOptions vm;
        vm.nodes = self.peers.size();
        vm.dsm.policy = "AT";
        vm.backend = gos::Backend::kSockets;
        vm.sockets.rank = self.rank;
        vm.sockets.peers = self.peers;
        vm.sockets.ranks_per_proc = self.ranks_per_proc;
        vm.sockets.listen_fd = self.listen_fd;
        vm.sockets.io_threads = io_threads;
        vm.sockets.batch_frames = wire.batch;
        vm.sockets.wire_delta = wire.wire_delta;
        vm.sockets.shm = wire.shm;
        vm.trace_out = trace_path;
        const workload::ScenarioResult res = run(std::move(vm));
        Writer w;
        w.u64(res.checksum);
        w.u64(res.ops_executed);
        gos::EncodeReport(w, res.report);
        return w.take();
      },
      &blob);
  if (status == 0 && !trace_path.empty())
    trace::MergeChromeShards(trace_path, nodes);
  if (status != 0) return false;
  try {
    Reader r(blob);
    out->checksum = r.u64();
    out->ops_executed = r.u64();
    out->report = gos::DecodeReport(r);
    return r.done();
  } catch (const CheckError&) {
    return false;
  }
}

/// One measured configuration of one workload.
struct Row {
  std::string workload;
  std::string config;  // threads_inject | sockets_batch | sockets_nobatch
  workload::ScenarioResult res;
  bool ok = false;          // run completed and metrics parsed
  bool checksum_ok = false;  // matches the sim reference
};

double UsPerMsg(const workload::ScenarioResult& r) {
  return r.report.messages > 0 ? r.report.seconds * 1e6 /
                                     static_cast<double>(r.report.messages)
                               : 0.0;
}

double OpsPerSec(const workload::ScenarioResult& r) {
  return r.report.seconds > 0
             ? static_cast<double>(r.ops_executed) / r.report.seconds
             : 0.0;
}

/// Total decision-ledger entries (live + evicted) across all ranks.
std::uint64_t Decisions(const gos::RunReport& r) {
  return r.totals.Ledger().size() + r.totals.Ledger().dropped();
}

/// The --scaling sweep: the hotspot pattern at growing rank counts, each
/// run packed into at most eight OS processes via multi-rank hosting, with
/// every checksum verified against the sim. Emits results/scaling.json.
int RunScalingSweep(const Flags& flags, bool smoke) {
  std::vector<std::size_t> counts = {4, 8, 16, 32, 64, 128};
  if (smoke) counts = {4, 8};
  const auto reps = static_cast<std::uint32_t>(
      flags.GetInt("reps", smoke ? 4 : 30));
  const std::size_t max_procs =
      static_cast<std::size_t>(flags.GetInt("max-procs", 8));
  const std::size_t io_threads =
      static_cast<std::size_t>(flags.GetInt("io-threads", 4));
  // The sweep runs the full hot path (the configuration ops run under);
  // flip either flag off to sweep the ablated wire.
  const WireConfig wire{flags.GetBool("wire-delta", true) ||
                                flags.GetBool("shm", true)
                            ? "sockets_hotpath"
                            : "sockets_batch",
                        /*batch=*/true, flags.GetBool("wire-delta", true),
                        flags.GetBool("shm", true)};

  struct ScalePoint {
    std::size_t nodes = 0;
    std::size_t ranks_per_proc = 0;
    std::size_t procs = 0;
    workload::ScenarioResult res;
    bool ok = false;
    bool checksum_ok = false;
  };
  std::vector<ScalePoint> points;
  bool all_ok = true;

  std::printf("scaling sweep: hotspot reps=%u, <=%zu processes per run\n\n",
              reps, max_procs);
  for (const std::size_t n : counts) {
    ScalePoint pt;
    pt.nodes = n;
    pt.ranks_per_proc = (n + max_procs - 1) / max_procs;
    pt.procs = (n + pt.ranks_per_proc - 1) / pt.ranks_per_proc;

    workload::PatternParams params;
    params.pattern = "hotspot";
    params.nodes = static_cast<std::uint32_t>(n);
    params.objects = static_cast<std::uint32_t>(flags.GetInt("objects", 4));
    params.object_bytes =
        static_cast<std::uint32_t>(flags.GetInt("bytes", 256));
    params.repetitions = reps;
    params.seed = 1;
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(params));

    gos::VmOptions sim_opts;
    sim_opts.nodes = n;
    sim_opts.dsm.policy = "AT";
    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);

    pt.ok = RunOnMesh(
        n, pt.ranks_per_proc, io_threads, wire, /*trace_path=*/{},
        [&](gos::VmOptions vm) { return workload::RunScenario(vm, scenario); },
        &pt.res);
    pt.checksum_ok = pt.ok && pt.res.checksum == sim.checksum;
    all_ok = all_ok && pt.ok && pt.checksum_ok;
    points.push_back(pt);
    std::printf("  %3zu ranks / %zu procs (rpp=%zu): %s\n", n, pt.procs,
                pt.ranks_per_proc,
                pt.ok ? (pt.checksum_ok ? "ok" : "CHECKSUM MISMATCH")
                      : "FAILED");
  }

  Table t({"ranks", "procs", "rpp", "wall ms", "ops/sec", "msgs", "us/msg",
           "writes", "frames", "data"});
  for (const ScalePoint& p : points) {
    if (!p.ok) {
      t.AddRow({FmtI(static_cast<long long>(p.nodes)),
                FmtI(static_cast<long long>(p.procs)),
                FmtI(static_cast<long long>(p.ranks_per_proc)), "-", "-",
                "-", "-", "-", "-", "FAILED"});
      continue;
    }
    t.AddRow({FmtI(static_cast<long long>(p.nodes)),
              FmtI(static_cast<long long>(p.procs)),
              FmtI(static_cast<long long>(p.ranks_per_proc)),
              FmtF(p.res.report.seconds * 1e3, 2),
              FmtI(static_cast<long long>(OpsPerSec(p.res))),
              FmtI(static_cast<long long>(p.res.report.messages)),
              FmtF(UsPerMsg(p.res), 2),
              FmtI(static_cast<long long>(p.res.report.socket_writes)),
              FmtI(static_cast<long long>(p.res.report.wire_frames)),
              p.checksum_ok ? "ok" : "MISMATCH"});
  }
  std::printf("\n");
  t.Print(std::cout);

  const std::string json_path = bench::JsonPath("scaling");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    JsonWriter j(os);
    j.BeginObject();
    j.Key("bench").String("scaling");
    j.Key("smoke").Bool(smoke);
    j.Key("pattern").String("hotspot");
    j.Key("repetitions").Uint(reps);
    j.Key("max_procs").Uint(max_procs);
    j.Key("io_threads").Uint(io_threads);
    j.Key("wire_delta").Bool(wire.wire_delta);
    j.Key("shm").Bool(wire.shm);
    j.Key("nodes").BeginArray();
    for (const std::size_t n : counts) j.Uint(n);
    j.EndArray();
    j.Key("points").BeginArray();
    for (const ScalePoint& p : points) {
      j.BeginObject();
      j.Key("ranks").Uint(p.nodes);
      j.Key("processes").Uint(p.procs);
      j.Key("ranks_per_proc").Uint(p.ranks_per_proc);
      j.Key("ok").Bool(p.ok);
      j.Key("checksum_ok").Bool(p.checksum_ok);
      j.Key("wall_seconds").Double(p.res.report.seconds);
      j.Key("ops").Uint(p.res.ops_executed);
      j.Key("ops_per_sec").Double(OpsPerSec(p.res));
      j.Key("messages").Uint(p.res.report.messages);
      j.Key("us_per_msg").Double(UsPerMsg(p.res));
      stats::WriteRecorderJson(j, p.res.report.totals);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
    std::printf("\njson summary -> %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("out")) bench::SetCsvDir(flags.Get("out"));
  const bool smoke = flags.GetBool("smoke", false);
  bench::Banner("mesh throughput",
                "fig2/fig6 workloads on the forked multi-process TCP mesh "
                "vs Hockney-injected threads");

  if (flags.GetBool("scaling", false)) return RunScalingSweep(flags, smoke);

  workload::PatternParams params;
  params.nodes = static_cast<std::uint32_t>(flags.GetInt("nodes", 4));
  params.objects = static_cast<std::uint32_t>(flags.GetInt("objects", 4));
  params.object_bytes =
      static_cast<std::uint32_t>(flags.GetInt("bytes", 256));
  params.repetitions = static_cast<std::uint32_t>(flags.GetInt(
      "reps", smoke ? 4 : (bench::FullScale() ? 64 : 16)));
  params.seed = 1;
  const std::size_t io_threads =
      static_cast<std::size_t>(flags.GetInt("io-threads", 4));

  std::vector<std::string> patterns = workload::PatternNames();
  if (smoke) patterns = {"pingpong", "hotspot"};
  const int asp_size =
      static_cast<int>(flags.GetInt("asp-size", smoke ? 12 : 32));

  // The wire ablation: sockets_batch is the delta/shm-free baseline (the
  // previous wire behavior), then each hot-path feature alone, then both.
  // Smoke keeps the endpoints (baseline + full hot path) for CI.
  const bool delta_flag = flags.GetBool("wire-delta", true);
  const bool shm_flag = flags.GetBool("shm", true);
  std::vector<WireConfig> configs;
  configs.push_back({"sockets_batch", true, false, false});
  if (!smoke) {
    configs.push_back({"sockets_nobatch", false, false, false});
    if (delta_flag) configs.push_back({"sockets_delta", true, true, false});
    if (shm_flag) configs.push_back({"sockets_shm", true, false, true});
  }
  if (delta_flag && shm_flag)
    configs.push_back({"sockets_delta_shm", true, true, true});

  gos::VmOptions sim_opts;
  sim_opts.nodes = params.nodes;
  sim_opts.dsm.policy = "AT";
  gos::VmOptions thr_opts = sim_opts;
  thr_opts.backend = gos::Backend::kThreads;
  thr_opts.inject_latency = true;
  thr_opts.inject_scale = flags.GetDouble("inject-scale", 1.0);

  std::printf("nodes=%u objects=%u bytes=%u reps=%u policy=AT asp=%d "
              "(jitter delays stripped)%s\n\n",
              params.nodes, params.objects, params.object_bytes,
              params.repetitions, asp_size, smoke ? " [smoke]" : "");

  std::vector<Row> rows;
  bool all_ok = true;
  // The first sockets run (and only it) is traced: one merged Perfetto
  // file with events from every rank, without later runs clobbering it.
  std::string pending_trace = flags.Get("trace-out");

  // --- fig6 family: the six sharing patterns ------------------------------
  for (const std::string& pattern : patterns) {
    params.pattern = pattern;
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(params));

    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);
    const workload::ScenarioResult thr =
        workload::RunScenario(thr_opts, scenario);

    Row threads_row{pattern, "threads_inject", thr, true,
                    thr.checksum == sim.checksum};
    all_ok = all_ok && threads_row.checksum_ok;
    rows.push_back(threads_row);

    for (const WireConfig& wire : configs) {
      Row r;
      r.workload = pattern;
      r.config = wire.name;
      const std::string trace_path = std::exchange(pending_trace, {});
      r.ok = RunOnMesh(
          params.nodes, /*ranks_per_proc=*/1, io_threads, wire, trace_path,
          [&](gos::VmOptions vm) {
            return workload::RunScenario(vm, scenario);
          },
          &r.res);
      if (r.ok && !trace_path.empty())
        std::printf("trace (%s/%s) -> %s\n", r.workload.c_str(),
                    r.config.c_str(), trace_path.c_str());
      r.checksum_ok = r.ok && r.res.checksum == sim.checksum;
      all_ok = all_ok && r.ok && r.checksum_ok;
      rows.push_back(r);
    }
  }

  // --- fig2 family: ASP over the mesh -------------------------------------
  {
    apps::AspConfig cfg;
    cfg.n = asp_size;
    const auto sim_res = apps::RunAsp(sim_opts, cfg);
    const auto thr_res = apps::RunAsp(thr_opts, cfg);
    Row threads_row{"asp", "threads_inject",
                    {thr_res.report, 0, thr_res.checksum}, true,
                    thr_res.checksum == sim_res.checksum};
    all_ok = all_ok && threads_row.checksum_ok;
    rows.push_back(threads_row);
    for (const WireConfig& wire : configs) {
      Row r;
      r.workload = "asp";
      r.config = wire.name;
      const std::string trace_path = std::exchange(pending_trace, {});
      r.ok = RunOnMesh(
          params.nodes, /*ranks_per_proc=*/1, io_threads, wire, trace_path,
          [&](gos::VmOptions vm) {
            const auto res = apps::RunAsp(vm, cfg);
            return workload::ScenarioResult{res.report, 0, res.checksum};
          },
          &r.res);
      if (r.ok && !trace_path.empty())
        std::printf("trace (%s/%s) -> %s\n", r.workload.c_str(),
                    r.config.c_str(), trace_path.c_str());
      r.checksum_ok = r.ok && r.res.checksum == sim_res.checksum;
      all_ok = all_ok && r.ok && r.checksum_ok;
      rows.push_back(r);
    }
  }

  // --- phase churn: decision ledger, time-series, adaptation latency ------
  // phased_writer rotates the sole writer every few epochs — the shape the
  // adaptive policy exists to chase. One audited run exercises the whole
  // decision-observability plane (ledger gather + audit JSON, poll-driven
  // per-rank sampling, phase-marker adaptation latency); the paired
  // --audit=0 run is the throughput-overhead control (compare us/msg).
  gos::RunReport churn_audit;
  bool churn_audit_ok = false;
  const std::string audit_path = bench::JsonPath("mesh_audit");
  {
    workload::PatternParams churn = params;
    churn.pattern = "phased_writer";
    // Enough writer rotations for several phase markers and a run long
    // enough for a handful of 5ms sampling windows per rank.
    churn.repetitions = std::max<std::uint32_t>(churn.repetitions, 16);
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(churn));
    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);
    for (const bool audit : {true, false}) {
      Row r;
      r.workload = "phased_churn";
      r.config = audit ? "sockets_audit" : "sockets_noaudit";
      // Both audit rows run the full hot path: the pair isolates audit
      // overhead, not the wire configuration.
      r.ok = RunOnMesh(
          params.nodes, /*ranks_per_proc=*/1, io_threads,
          WireConfig{r.config, true, delta_flag, shm_flag},
          /*trace_path=*/{},
          [&](gos::VmOptions vm) {
            vm.dsm.audit = audit;
            // Below the CLI's 10ms floor on purpose: the bench wants several
            // closed windows per rank inside a tens-of-ms run.
            vm.poll_interval_s = 0.005;
            const workload::ScenarioResult res =
                workload::RunScenario(vm, scenario);
            if (audit && vm.sockets.rank == 0 && !audit_path.empty())
              stats::WriteAuditFile(audit_path, res.report.totals.Ledger());
            return res;
          },
          &r.res);
      r.checksum_ok = r.ok && r.res.checksum == sim.checksum;
      all_ok = all_ok && r.ok && r.checksum_ok;
      if (audit) {
        churn_audit = r.res.report;
        // Every policy consultation must be in the ledger: accepted ones
        // bumped kMigrations, declined ones kMigRejections.
        churn_audit_ok = r.ok && Decisions(churn_audit) ==
                                     churn_audit.migrations +
                                         churn_audit.mig_rejections;
        all_ok = all_ok && churn_audit_ok;
      }
      rows.push_back(r);
    }
    std::printf(
        "phase churn (audit): decisions=%llu migrations=%llu rejections=%llu "
        "[%s]  adaptation count=%llu p50=%llu p95=%llu p99=%llu ns  "
        "series samples=%zu\n",
        static_cast<unsigned long long>(Decisions(churn_audit)),
        static_cast<unsigned long long>(churn_audit.migrations),
        static_cast<unsigned long long>(churn_audit.mig_rejections),
        churn_audit_ok ? "accounted" : "MISMATCH",
        static_cast<unsigned long long>(churn_audit.adaptation.count),
        static_cast<unsigned long long>(churn_audit.adaptation.p50),
        static_cast<unsigned long long>(churn_audit.adaptation.p95),
        static_cast<unsigned long long>(churn_audit.adaptation.p99),
        churn_audit.totals.Series().samples().size());
    if (!audit_path.empty())
      std::printf("audit ledger -> %s\n", audit_path.c_str());
  }

  // --- report --------------------------------------------------------------
  Table t({"workload", "config", "wall ms", "ops/sec", "msgs", "us/msg",
           "writes", "frames", "deltas", "saved", "shm", "data"});
  CsvWriter csv(bench::CsvPath("mesh"));
  std::vector<std::string> header = {"workload",    "config",
                                     "wall_seconds", "ops_per_sec",
                                     "messages",    "us_per_msg"};
  bench::AppendEvNames(header);
  header.push_back("checksum_ok");
  csv.Row(header);
  for (const Row& r : rows) {
    std::vector<std::string> cells = {r.workload, r.config};
    if (!r.ok) {
      t.AddRow({r.workload, r.config, "-", "-", "-", "-", "-", "-", "-", "-",
                "-", "FAILED"});
      cells.resize(header.size() - 1);
      cells.push_back("0");
      csv.Row(cells);
      continue;
    }
    const gos::RunReport& rep = r.res.report;
    t.AddRow({r.workload, r.config, FmtF(rep.seconds * 1e3, 2),
              FmtI(static_cast<long long>(OpsPerSec(r.res))),
              FmtI(static_cast<long long>(rep.messages)),
              FmtF(UsPerMsg(r.res), 2),
              FmtI(static_cast<long long>(rep.socket_writes)),
              FmtI(static_cast<long long>(rep.wire_frames)),
              FmtI(static_cast<long long>(rep.wire_delta_hits)),
              FmtBytes(static_cast<double>(rep.wire_delta_bytes_saved)),
              FmtI(static_cast<long long>(rep.shm_msgs)),
              r.checksum_ok ? "ok" : "MISMATCH"});
    cells.insert(cells.end(),
                 {std::to_string(rep.seconds), std::to_string(OpsPerSec(r.res)),
                  std::to_string(rep.messages),
                  std::to_string(UsPerMsg(r.res))});
    bench::AppendEvCounts(cells, rep.totals);
    cells.push_back(r.checksum_ok ? "1" : "0");
    csv.Row(cells);
  }
  t.Print(std::cout);
  std::printf(
      "\n(sockets rows: forked %u-rank localhost mesh; writes/frames/deltas/"
      "shm are cluster totals over every rank's transport. sockets_batch is "
      "the delta/shm-free baseline wire; _delta adds wire delta encoding, "
      "_shm moves same-host data frames onto shared-memory rings, "
      "_delta_shm is the full hot path.\n"
      " threads_inject rows: in-process backend with per-delivery Hockney "
      "deadlines — the modeled regime the mesh is compared against.)\n",
      params.nodes);

  const std::string json_path = bench::JsonPath("mesh");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    JsonWriter j(os);
    j.BeginObject();
    j.Key("bench").String("mesh");
    j.Key("smoke").Bool(smoke);
    j.Key("nodes").Uint(params.nodes);
    j.Key("objects").Uint(params.objects);
    j.Key("object_bytes").Uint(params.object_bytes);
    j.Key("repetitions").Uint(params.repetitions);
    j.Key("asp_size").Int(asp_size);
    // Mesh shape: enough to rebuild the exact run from the JSON alone.
    j.Key("ranks_per_proc").Uint(1);
    j.Key("io_threads").Uint(io_threads);
    j.Key("wire_delta").Bool(delta_flag);
    j.Key("shm").Bool(shm_flag);
    j.Key("rows").BeginArray();
    for (const Row& r : rows) {
      j.BeginObject();
      j.Key("workload").String(r.workload);
      j.Key("config").String(r.config);
      j.Key("ok").Bool(r.ok);
      j.Key("checksum_ok").Bool(r.checksum_ok);
      j.Key("wall_seconds").Double(r.res.report.seconds);
      j.Key("ops").Uint(r.res.ops_executed);
      j.Key("ops_per_sec").Double(OpsPerSec(r.res));
      j.Key("messages").Uint(r.res.report.messages);
      j.Key("us_per_msg").Double(UsPerMsg(r.res));
      j.Key("decisions").Uint(Decisions(r.res.report));
      // Every registry counter plus the cluster-wide latency quantiles
      // (only populated histograms appear; threads rows lack socket_write).
      stats::WriteRecorderJson(j, r.res.report.totals);
      // Cluster-merged windowed counter deltas (one sample per rank per
      // poll window; empty unless the run sampled).
      const stats::Timeseries& series = r.res.report.totals.Series();
      if (!series.samples().empty()) {
        j.Key("series");
        stats::WriteTimeseriesJson(j, series);
      }
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
    std::printf("json summary -> %s\n", json_path.c_str());
  }

  return all_ok ? 0 : 1;
}
