// dsmbench — the measuring half of the repo benchmark (perfbench/run.py
// builds it, runs it and prints the result).
//
// One invocation runs one workload closed-loop on a forked localhost mesh:
// 4 ranks in 4 OS processes, one worker per rank, each worker issuing its
// next DSM op only after the previous one returned. The mesh runs with the
// system's default configuration (AT policy, shm rings, wire deltas, frame
// batching, 4 reactor threads, 250 ms heartbeats) except where a workload
// says otherwise. The workload is generated from --seed, which reaches only
// workload::PatternParams::seed and so perturbs only the think-time delay
// ops, never the access stream.
//
// The run is a sequence of rounds until --seconds have passed. A round
// forks a fresh mesh, creates the objects, opens the measured window, runs
// every worker's program, and tears the mesh down; every rank process
// writes what it measured to a file the parent process merges. Each worker
// times every call it makes into the gos facade; think-time delays stay in
// the program as application compute but are left out of op counts and
// latencies. Every round's checksum is compared with a reference computed
// once on the sim backend, outside timing; a round that aborts, times out,
// loses a message or differs from the reference counts all its ops as
// failed.
//
// With --trace=1 the run alternates untraced and traced rounds (spans on
// around every call the benchmark makes into a layer), then times isolated
// calls into proto, dsm, netio and runtime at the workload's own message
// sizes and mix. The traced rounds give the per-layer numbers and a
// Perfetto file; the untraced ones give the tracing overhead.
//
// Usage:
//   dsmbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --out=RESULT.json --scratch=DIR [--corrupt-reference]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "drives.h"
#include "latency.h"
#include "spans.h"
#include "src/gos/vm.h"
#include "src/netio/launcher.h"
#include "src/util/flags.h"
#include "src/util/fnv.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/workload/patterns.h"
#include "src/workload/recorder.h"

namespace perfbench {
namespace {

using namespace hmdsm;
using workload::OpKind;

constexpr std::uint32_t kRanks = 4;
constexpr std::uint32_t kObjects = 4;
// A rank process that has not finished by then is killed (SIGALRM) and its
// round counts as failed: a hung mesh cannot hang the benchmark.
constexpr unsigned kRankTimeoutS = 60;
// Spans per thread written to the Perfetto file (all spans feed the
// per-layer table; the file only needs enough to show the shape).
constexpr std::size_t kPerfettoSpansPerThread = 4000;
// Bytes of each read folded into the worker's checksum: covers every byte
// read_mostly's small writes touch while keeping the fold (which runs
// inside the timed Env::Read) cheap.
constexpr std::size_t kReadFoldBytes = 16;

struct Workload {
  const char* name;
  const char* pattern;
  std::uint32_t object_bytes;
  std::uint32_t reps;  // one round's repetitions
  bool shm;
};

// Rounds are sized to about a third of a second of measured window on a
// 4-core host: short enough that a run holds many rounds (many set-ups) and
// some of them fall between spells of interference from the host, long
// enough that every round's latency percentiles rest on thousands of samples.
constexpr std::array<Workload, 3> kWorkloads = {{
    {"hotspot", "hotspot", 256, 700, true},
    {"migratory", "migratory", 256, 50, true},
    {"read_mostly_tcp", "read_mostly", 4096, 350, false},
}};

enum Kind { kRead, kWrite, kAcquire, kRelease, kBarrier, kNumKinds };
constexpr std::array<const char*, kNumKinds> kKindNames = {
    "read", "write", "acquire", "release", "barrier"};
constexpr std::array<SpanName, kNumKinds> kKindSpans = {
    SpanName::kRead, SpanName::kWrite, SpanName::kAcquire, SpanName::kRelease,
    SpanName::kBarrier};

gos::VmOptions MeshDefaults(const Workload& w) {
  gos::VmOptions o;
  o.nodes = kRanks;
  o.backend = gos::Backend::kSockets;
  o.sockets.shm = w.shm;
  return o;
}

// ---------------------------------------------------------------------------
// What one rank process measures.
// ---------------------------------------------------------------------------

struct WorkerStats {
  std::array<LatencyHist, kNumKinds> lat;
  std::uint64_t ops = 0;  // DSM ops, delays excluded
  std::uint64_t delays = 0;
  std::int64_t delay_ns = 0;
  std::int64_t first_op_ns = 0;  // issue time of the first DSM op
  std::int64_t last_op_ns = 0;   // return time of the last DSM op

  void Encode(Writer& w) const {
    for (const LatencyHist& h : lat) h.Encode(w);
    w.u64(ops);
    w.u64(delays);
    w.i64(delay_ns);
    w.i64(first_op_ns);
    w.i64(last_op_ns);
  }
  static WorkerStats Decode(Reader& r) {
    WorkerStats s;
    for (LatencyHist& h : s.lat) h = LatencyHist::Decode(r);
    s.ops = r.u64();
    s.delays = r.u64();
    s.delay_ns = r.i64();
    s.first_op_ns = r.i64();
    s.last_op_ns = r.i64();
    return s;
  }
};

/// The named scalars of the lead's RunReport the parent uses. RunReport's
/// latency summaries come from power-of-two histograms: attribution only.
std::vector<std::pair<std::string, double>> ReportCounters(
    const gos::RunReport& r) {
  std::vector<std::pair<std::string, double>> c;
  const auto add = [&](std::string name, double v) {
    c.emplace_back(std::move(name), v);
  };
  add("messages", r.messages);
  add("bytes", r.bytes);
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    const std::string cat(stats::MsgCatName(static_cast<stats::MsgCat>(i)));
    add("msgs." + cat, r.cat[i].messages);
    add("bytes." + cat, r.cat[i].bytes);
  }
  add("migrations", r.migrations);
  add("mig_rejections", r.mig_rejections);
  add("redirect_hops", r.redirect_hops);
  add("diffs_created", r.diffs_created);
  add("fault_ins", r.fault_ins);
  add("sent_messages", r.sent_messages);
  add("received_messages", r.received_messages);
  add("socket_writes", r.socket_writes);
  add("wire_frames", r.wire_frames);
  add("wire_frames_coalesced", r.wire_frames_coalesced);
  add("wire_delta_hits", r.wire_delta_hits);
  add("wire_delta_misses", r.wire_delta_misses);
  add("wire_delta_bytes_saved", r.wire_delta_bytes_saved);
  add("shm_msgs", r.shm_msgs);
  add("mailbox_overflow_allocs", r.mailbox_overflow_allocs);
  add("rx_buffer_allocs", r.rx_buffer_allocs);
  const auto hist = [&](const std::string& name, const gos::HistSummary& h) {
    add(name + ".count", h.count);
    add(name + ".p50_ns", h.p50);
    add(name + ".p99_ns", h.p99);
  };
  hist("rtt_obj", r.rtt[static_cast<std::size_t>(stats::MsgCat::kObj)]);
  hist("rtt_mig", r.rtt[static_cast<std::size_t>(stats::MsgCat::kMig)]);
  hist("mailbox_dwell", r.mailbox_dwell);
  hist("socket_write", r.socket_write_ns);
  // Each link sees only a few beats per round, so its p50 takes few
  // distinct values; the mean over links (and rounds) resolves finer.
  double hb_sum = 0, hb_links = 0;
  for (const gos::RunReport::PeerReport& p : r.peer_health) {
    if (p.rtt_p50_us < 0) continue;
    hb_sum += p.rtt_p50_us;
    hb_links += 1;
  }
  add("heartbeat_links", hb_links);
  add("heartbeat_rtt_p50_us", hb_links > 0 ? hb_sum / hb_links : 0);
  return c;
}

/// Everything one process of a round (or the sim reference) produces.
struct RankCtx {
  RankCtx(const workload::Scenario& s, bool traced) : scenario(s) {
    workers.resize(s.workers.size());
    for (std::uint32_t w = 0; w < s.workers.size(); ++w)
      logs.emplace_back(w, traced);
    logs.emplace_back(SpanLog::kLeadThread, traced);
  }
  SpanLog& lead_log() { return logs.back(); }

  const workload::Scenario& scenario;
  std::vector<WorkerStats> workers;  // only this process's workers fill
  std::vector<SpanLog> logs;         // per worker, then the lead's main
  std::vector<std::uint8_t> local;   // which workers ran here (one byte
                                     // per worker: each thread sets its own)
  std::int64_t vm_create_ns = 0;
  // Lead (reporting) process only:
  bool reporting = false;
  std::uint64_t checksum = 0;
  std::uint64_t dsm_ops = 0;
  std::int64_t window_open_ns = 0;
  std::int64_t joined_ns = 0;
  std::int64_t quiesce_ns = 0;
  std::vector<std::int64_t> create_object_ns;
  gos::RunReport report;
};

/// Writes the payload of the `ordinal`-th DSM op of `worker`: a pure
/// function of both, so the final contents do not depend on the seed
/// (which moves only delays) or on timing.
void FillWrite(MutByteSpan bytes, std::uint64_t dirty_arg,
               std::uint32_t worker, std::uint64_t ordinal) {
  const std::size_t dirty =
      dirty_arg == 0 ? bytes.size()
                     : std::min<std::size_t>(dirty_arg, bytes.size());
  SplitMix64 fill(0xC0FFEEull + worker * 0x9E3779B97F4A7C15ull + ordinal);
  std::uint64_t word = fill.next();
  for (std::size_t i = 0; i < dirty; ++i) {
    if (i % 8 == 0 && i > 0) word = fill.next();
    bytes[i] = static_cast<Byte>(word >> ((i % 8) * 8));
  }
}

void RunWorker(gos::Env& env, const workload::WorkerSpec& spec,
               const workload::Bindings& b, std::uint32_t worker,
               WorkerStats& st, SpanLog& log) {
  const std::int32_t root = log.Open(SpanName::kWorker, NowNs());
  std::uint64_t dsm_ordinal = 0;
  std::uint64_t checksum = kFnvOffsetBasis;
  for (std::uint64_t i = 0; i < spec.program.size(); ++i) {
    const workload::Op& op = spec.program[i];
    const std::int64_t t0 = NowNs();
    Kind kind = kRead;
    switch (op.kind) {
      case OpKind::kRead:
        env.Read(b.objects[op.id], [&](ByteSpan bytes) {
          const std::size_t n = std::min(bytes.size(), kReadFoldBytes);
          for (std::size_t k = 0; k < n; ++k)
            checksum = FnvFold(checksum, bytes[k]);
        });
        kind = kRead;
        break;
      case OpKind::kWrite:
        env.Write(b.objects[op.id], [&](MutByteSpan bytes) {
          FillWrite(bytes, op.arg, worker, dsm_ordinal);
        });
        kind = kWrite;
        break;
      case OpKind::kAcquire:
        env.Acquire(b.locks[op.id]);
        kind = kAcquire;
        break;
      case OpKind::kRelease:
        env.Release(b.locks[op.id]);
        kind = kRelease;
        break;
      case OpKind::kBarrier:
        env.Barrier(b.barriers[op.id], static_cast<std::uint32_t>(op.arg));
        kind = kBarrier;
        break;
      case OpKind::kDelay: {
        env.Delay(static_cast<sim::Time>(op.arg));
        const std::int64_t t1 = NowNs();
        st.delays += 1;
        st.delay_ns += t1 - t0;
        log.Add(SpanName::kDelay, t0, t1, root, i);
        continue;
      }
      case OpKind::kPhaseMark:
        env.PhaseMark();
        continue;
    }
    const std::int64_t t1 = NowNs();
    if (st.ops == 0) st.first_op_ns = t0;
    st.last_op_ns = t1;
    st.ops += 1;
    st.lat[kind].Record(static_cast<std::uint64_t>(t1 - t0));
    log.Add(kKindSpans[kind], t0, t1, root, i);
    ++dsm_ordinal;
  }
  log.Close(root, NowNs());
  Writer res;
  res.u64(st.ops);
  res.u64(checksum);
  env.PublishResult(res.take());
}

/// The application main: the same program on every backend and rank (on
/// non-lead sockets ranks it is the ghost replica).
void RunApplication(gos::Vm& vm, gos::Env& env, RankCtx& ctx) {
  const workload::Scenario& s = ctx.scenario;
  SpanLog& lead = ctx.lead_log();
  // A ghost main's calls do nothing; only the lead's are worth a span.
  if (!vm.reporting()) lead.set_enabled(false);
  const std::int32_t main_span = lead.Open(SpanName::kLeadMain, NowNs());

  workload::Bindings b;
  for (const workload::ObjectSpec& o : s.objects) {
    const std::int64_t t0 = NowNs();
    b.objects.push_back(vm.CreateObject(env, o.home, ZeroBytes(o.bytes)));
    const std::int64_t t1 = NowNs();
    ctx.create_object_ns.push_back(t1 - t0);
    lead.Add(SpanName::kCreateObject, t0, t1, main_span);
  }
  std::int64_t t0 = NowNs();
  for (dsm::NodeId m : s.lock_managers) b.locks.push_back(vm.CreateLock(m));
  for (dsm::NodeId m : s.barrier_managers)
    b.barriers.push_back(vm.CreateBarrier(m));
  lead.Add(SpanName::kCreateSync, t0, NowNs(), main_span);

  t0 = NowNs();
  vm.ResetMeasurement();
  ctx.window_open_ns = NowNs();
  lead.Add(SpanName::kResetMeasurement, t0, ctx.window_open_ns, main_span);

  t0 = NowNs();
  std::vector<gos::Thread*> threads;
  ctx.local.assign(s.workers.size(), false);
  for (std::uint32_t w = 0; w < s.workers.size(); ++w) {
    const workload::WorkerSpec& spec = s.workers[w];
    threads.push_back(vm.Spawn(
        spec.node,
        [&ctx, &b, &spec, w](gos::Env& me) {
          ctx.local[w] = true;
          RunWorker(me, spec, b, w, ctx.workers[w], ctx.logs[w]);
        },
        spec.name));
  }
  lead.Add(SpanName::kSpawn, t0, NowNs(), main_span);

  t0 = NowNs();
  for (gos::Thread* t : threads) vm.Join(env, t);
  ctx.joined_ns = NowNs();
  lead.Add(SpanName::kJoin, t0, ctx.joined_ns, main_span);

  t0 = NowNs();
  vm.Quiesce(env);
  const std::int64_t t1 = NowNs();
  ctx.quiesce_ns = t1 - t0;
  lead.Add(SpanName::kQuiesce, t0, t1, main_span);

  ctx.report = vm.Report();
  lead.Add(SpanName::kReport, t1, NowNs(), main_span);

  if (vm.reporting()) {
    // Digest: per-worker read checksums in worker order, then every
    // object's final contents, read after quiescence.
    t0 = NowNs();
    ctx.reporting = true;
    std::uint64_t digest = kFnvOffsetBasis;
    for (gos::Thread* t : threads) {
      Reader res(t->result());
      ctx.dsm_ops += res.u64();
      digest = FnvFold64(digest, res.u64());
    }
    for (gos::ObjectId obj : b.objects)
      env.Read(obj, [&](ByteSpan bytes) {
        for (Byte x : bytes) digest = FnvFold(digest, x);
      });
    ctx.checksum = digest;
    lead.Add(SpanName::kDigest, t0, NowNs(), main_span);
  }
  lead.Close(main_span, NowNs());
}

// ---------------------------------------------------------------------------
// Rank-process output files.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kFileMagic = 0x50424e31;  // "PBN1"

bool WriteFile(const std::string& path, const Bytes& data) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(data.data()),
             static_cast<std::streamsize>(data.size()));
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

bool ReadFile(const std::string& path, Bytes* out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  out->assign(std::istreambuf_iterator<char>(is),
              std::istreambuf_iterator<char>());
  return true;
}

double PeakRssKib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

Bytes EncodeRank(const RankCtx& ctx, std::uint32_t rank, bool traced) {
  Writer w;
  w.u32(kFileMagic);
  w.u32(rank);
  w.f64(PeakRssKib());
  w.i64(ctx.vm_create_ns);
  std::uint32_t local = 0;
  for (std::uint8_t l : ctx.local) local += l;
  w.u32(local);
  for (std::uint32_t i = 0; i < ctx.workers.size(); ++i) {
    if (!ctx.local[i]) continue;
    w.u32(i);
    ctx.workers[i].Encode(w);
  }
  LayerTable table{};
  for (const SpanLog& log : ctx.logs) log.AccumulateInto(table);
  for (const LayerRow& row : table) {
    w.u64(row.count);
    w.f64(row.busy_ns);
    w.f64(row.self_ns);
  }
  w.u32(traced ? static_cast<std::uint32_t>(ctx.logs.size()) : 0);
  if (traced)
    for (const SpanLog& log : ctx.logs) log.Encode(w, kPerfettoSpansPerThread);
  w.u8(ctx.reporting);
  if (ctx.reporting) {
    w.u64(ctx.checksum);
    w.u64(ctx.dsm_ops);
    w.i64(ctx.window_open_ns);
    w.i64(ctx.joined_ns);
    w.i64(ctx.quiesce_ns);
    w.u32(static_cast<std::uint32_t>(ctx.create_object_ns.size()));
    for (std::int64_t ns : ctx.create_object_ns) w.i64(ns);
    const auto counters = ReportCounters(ctx.report);
    w.u32(static_cast<std::uint32_t>(counters.size()));
    for (const auto& [name, v] : counters) {
      w.str(name);
      w.f64(v);
    }
  }
  return w.take();
}

struct RankOut {
  std::uint32_t rank = 0;
  double peak_rss_kib = 0;
  std::int64_t vm_create_ns = 0;
  std::vector<std::pair<std::uint32_t, WorkerStats>> workers;
  LayerTable table{};
  std::vector<SpanLog> logs;
  bool reporting = false;
  std::uint64_t checksum = 0;
  std::uint64_t dsm_ops = 0;
  std::int64_t window_open_ns = 0;
  std::int64_t joined_ns = 0;
  std::int64_t quiesce_ns = 0;
  std::vector<std::int64_t> create_object_ns;
  std::map<std::string, double> counters;
};

RankOut DecodeRank(const Bytes& data) {
  Reader r(data);
  HMDSM_CHECK_MSG(r.u32() == kFileMagic, "rank file: bad magic");
  RankOut o;
  o.rank = r.u32();
  o.peak_rss_kib = r.f64();
  o.vm_create_ns = r.i64();
  const std::uint32_t n = r.u32();
  HMDSM_CHECK_MSG(n <= kRanks, "rank file: bad worker count");
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t w = r.u32();
    o.workers.emplace_back(w, WorkerStats::Decode(r));
  }
  for (LayerRow& row : o.table) {
    row.count = r.u64();
    row.busy_ns = r.f64();
    row.self_ns = r.f64();
  }
  const std::uint32_t logs = r.u32();
  HMDSM_CHECK_MSG(logs <= kRanks + 1, "rank file: bad log count");
  for (std::uint32_t i = 0; i < logs; ++i) o.logs.push_back(SpanLog::Decode(r));
  o.reporting = r.u8() != 0;
  if (o.reporting) {
    o.checksum = r.u64();
    o.dsm_ops = r.u64();
    o.window_open_ns = r.i64();
    o.joined_ns = r.i64();
    o.quiesce_ns = r.i64();
    const std::uint32_t objs = r.u32();
    HMDSM_CHECK_MSG(objs <= kObjects, "rank file: bad object count");
    for (std::uint32_t i = 0; i < objs; ++i)
      o.create_object_ns.push_back(r.i64());
    const std::uint32_t counters = r.u32();
    for (std::uint32_t i = 0; i < counters; ++i) {
      std::string name = r.str();
      o.counters[name] = r.f64();
    }
  }
  HMDSM_CHECK_MSG(r.done(), "rank file: trailing bytes");
  return o;
}

// ---------------------------------------------------------------------------
// The parent process: reference, rounds, aggregation.
// ---------------------------------------------------------------------------

struct Reference {
  bool ok = false;
  std::uint64_t checksum = 0;
  std::uint64_t dsm_ops = 0;
  std::string why;
};

/// Waits for `pid`; returns its exit code (128 + signal when killed).
int WaitChild(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) return 1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return 1;
}

/// The sim backend's checksum for the scenario, computed in a child process
/// so the parent stays single-threaded and lean for the mesh forks.
Reference SimReference(const workload::Scenario& s, const std::string& dir) {
  const std::string path = dir + "/reference.bin";
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  HMDSM_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    alarm(kRankTimeoutS);
    int status = 1;
    try {
      gos::VmOptions o;
      o.nodes = kRanks;
      gos::Vm vm(o);
      RankCtx ctx(s, /*traced=*/false);
      vm.Run([&](gos::Env& env) { RunApplication(vm, env, ctx); });
      Writer w;
      w.u64(ctx.checksum);
      w.u64(ctx.dsm_ops);
      status = WriteFile(path, w.take()) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dsmbench: sim reference: %s\n", e.what());
    }
    std::fflush(stderr);
    _exit(status);
  }
  Reference ref;
  const int code = WaitChild(pid);
  Bytes data;
  if (code != 0 || !ReadFile(path, &data)) {
    ref.why = "sim reference run failed (exit " + std::to_string(code) + ")";
    return ref;
  }
  Reader r(data);
  ref.checksum = r.u64();
  ref.dsm_ops = r.u64();
  ref.ok = true;
  return ref;
}

/// One round's p50 and p99 of one call kind, and whether the round has
/// enough samples (ten beyond the percentile) to report each.
struct Percentiles {
  std::uint64_t count = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  bool has_p50 = false;
  bool has_p99 = false;
};

/// The aggregate CPU line of /proc/stat: steal and total ticks.
struct CpuTicks {
  bool ok = false;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  std::ifstream is("/proc/stat");
  std::string label;
  CpuTicks t;
  if (!(is >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(is >> v)) return t;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  t.ok = true;
  return t;
}

/// Percent of this machine's CPU time the hypervisor gave to other guests
/// between two readings: a result taken under heavy steal says more about
/// the host than about the program.
double StealPct(const CpuTicks& a, const CpuTicks& b) {
  if (!a.ok || !b.ok || b.total <= a.total) return 0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

struct Round {
  bool traced = false;
  bool ok = false;
  std::string why;
  double steal_pct = 0;
  double setup_s = 0;
  double window_s = 0;
  double ops_per_s = 0;
  double peak_rss_mib = 0;
  std::uint64_t ops = 0;
  std::uint64_t checksum = 0;
  double vm_create_s = 0;
  double quiesce_ms = 0;
  std::vector<double> create_object_us;
  std::int64_t worker_window_ns = 0;  // summed over workers
  std::int64_t delay_ns = 0;
  std::uint64_t delays = 0;
  std::array<double, kNumKinds> busy_ns{};
  std::array<Percentiles, kNumKinds + 1> pct{};  // per kind, then all kinds
  std::array<std::uint64_t, kNumKinds> kind_ops{};
  std::map<std::string, double> counters;
};

/// Everything a set of rounds (untraced or traced) adds up to.
struct Pool {
  std::vector<Round> rounds;
  LayerTable spans{};

  std::vector<const Round*> ok() const {
    std::vector<const Round*> out;
    for (const Round& r : rounds)
      if (r.ok) out.push_back(&r);
    return out;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename Fn>
double MedianOf(const std::vector<const Round*>& rounds, Fn&& fn) {
  std::vector<double> v;
  for (const Round* r : rounds) v.push_back(fn(*r));
  return Median(std::move(v));
}

// End-to-end timings are medians over the rounds the host left alone. On a
// shared host the hypervisor hands this machine's CPUs to other guests for
// seconds to minutes at a time, and a round then slows with the share it
// loses (on a 4-vCPU VM, hotspot by a tenth at 1% steal and sixfold at
// 17%), because every message wakes a thread on another CPU. Steal is time
// this machine wanted to run and was not let, so a change to the program
// cannot create it on a quiet host; rounds under it measure the host.
// Timings therefore use the rounds whose steal came within kStealSlackPct
// of the run's least-stolen round: on a quiet host those under 1%, in a run
// that a spell of steal covered whole, the least disturbed it had. Counts
// (messages, bytes, memory) use every round. Every round's steal is in the
// report's "rounds".
constexpr double kStealSlackPct = 1.0;

std::vector<const Round*> Timed(const std::vector<const Round*>& rounds) {
  double least = std::numeric_limits<double>::infinity();
  for (const Round* r : rounds) least = std::min(least, r->steal_pct);
  std::vector<const Round*> out;
  for (const Round* r : rounds)
    if (r->steal_pct < least + kStealSlackPct) out.push_back(r);
  return out;
}

double Rate(const std::vector<const Round*>& rounds) {
  return MedianOf(rounds, [](const Round& r) { return r.ops_per_s; });
}

double SumOf(const std::vector<const Round*>& rounds, const std::string& c) {
  double s = 0;
  for (const Round* r : rounds) {
    const auto it = r->counters.find(c);
    if (it != r->counters.end()) s += it->second;
  }
  return s;
}

struct Plan {
  const Workload* workload = nullptr;
  workload::Scenario scenario;
  std::uint64_t expected_ops = 0;
  std::uint64_t reference = 0;
  std::string scratch;
  std::string perfetto_path;
};

/// Writes the first traced round's spans, every rank, as Chrome trace-event
/// JSON (Perfetto loads it). Op spans carry worker:ordinal ids.
void WritePerfetto(const std::string& path, const std::vector<RankOut>& ranks,
                   std::int64_t t0) {
  std::ofstream os(path, std::ios::trunc);
  JsonWriter j(os);
  j.BeginObject();
  j.Key("displayTimeUnit").String("ns");
  j.Key("traceEvents").BeginArray();
  for (const RankOut& r : ranks) {
    j.BeginObject();
    j.Key("name").String("process_name");
    j.Key("ph").String("M");
    j.Key("pid").Uint(r.rank);
    j.Key("args").BeginObject();
    j.Key("name").String("rank " + std::to_string(r.rank));
    j.EndObject();
    j.EndObject();
    for (const SpanLog& log : r.logs) {
      const bool lead = log.thread() == SpanLog::kLeadThread;
      if (log.spans().empty()) continue;
      j.BeginObject();
      j.Key("name").String("thread_name");
      j.Key("ph").String("M");
      j.Key("pid").Uint(r.rank);
      j.Key("tid").Uint(log.thread());
      j.Key("args").BeginObject();
      j.Key("name").String(lead ? std::string("main")
                                : "worker " + std::to_string(log.thread()));
      j.EndObject();
      j.EndObject();
      for (const Span& s : log.spans()) {
        const std::string_view name = SpanNameStr(s.name);
        j.BeginObject();
        j.Key("name").String(name);
        j.Key("cat").String(name.substr(0, name.find('.')));
        j.Key("ph").String("X");
        j.Key("pid").Uint(r.rank);
        j.Key("tid").Uint(log.thread());
        j.Key("ts").Double(static_cast<double>(s.start_ns - t0) / 1e3);
        j.Key("dur").Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
        j.Key("args").BeginObject();
        if (!lead && s.parent >= 0)
          j.Key("op").String(std::to_string(log.thread()) + ":" +
                             std::to_string(s.ordinal));
        if (s.parent >= 0)
          j.Key("parent").String(SpanNameStr(
              log.spans()[static_cast<std::size_t>(s.parent)].name));
        j.EndObject();
        j.EndObject();
      }
    }
  }
  j.EndArray();
  j.EndObject();
  os << "\n";
}

int RunRank(const netio::LocalRank& self, const Plan& plan, bool traced,
            const std::string& dir) {
  alarm(kRankTimeoutS);
  gos::VmOptions o = MeshDefaults(*plan.workload);
  o.nodes = self.peers.size();
  o.sockets.rank = self.rank;
  o.sockets.peers = self.peers;
  o.sockets.ranks_per_proc = self.ranks_per_proc;
  o.sockets.listen_fd = self.listen_fd;
  RankCtx ctx(plan.scenario, traced);
  const std::int64_t t0 = NowNs();
  auto vm = std::make_unique<gos::Vm>(o);
  const std::int64_t t1 = NowNs();
  ctx.vm_create_ns = t1 - t0;
  ctx.lead_log().Add(SpanName::kVmCreate, t0, t1, -1);
  vm->Run([&](gos::Env& env) { RunApplication(*vm, env, ctx); });
  vm.reset();
  const std::string path = dir + "/p" + std::to_string(self.rank) + ".bin";
  return WriteFile(path, EncodeRank(ctx, self.rank, traced)) ? 0 : 3;
}

/// One round on a fresh mesh. `perfetto` additionally writes the round's
/// spans (a traced round's) to the plan's Perfetto file.
Round RunRound(const Plan& plan, int index, bool traced, bool perfetto,
               Pool& pool) {
  Round round;
  round.traced = traced;
  round.ops = plan.expected_ops;
  const std::string dir = plan.scratch + "/round" + std::to_string(index);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const CpuTicks ticks = ReadCpuTicks();
  const std::int64_t launch = NowNs();
  int status = 1;
  try {
    status = netio::RunLocalMesh(kRanks, 1, [&](const netio::LocalRank& self) {
      return RunRank(self, plan, traced, dir);
    });
  } catch (const std::exception& e) {
    round.why = std::string("mesh launch failed: ") + e.what();
    return round;
  }
  round.steal_pct = StealPct(ticks, ReadCpuTicks());
  if (status != 0) {
    round.why = "a rank process exited with status " + std::to_string(status);
    return round;
  }

  std::vector<RankOut> ranks;
  try {
    for (std::uint32_t r = 0; r < kRanks; ++r) {
      Bytes data;
      const std::string path = dir + "/p" + std::to_string(r) + ".bin";
      HMDSM_CHECK_MSG(ReadFile(path, &data), "missing " << path);
      ranks.push_back(DecodeRank(data));
    }
  } catch (const std::exception& e) {
    round.why = std::string("rank output unreadable: ") + e.what();
    return round;
  }
  std::filesystem::remove_all(dir);
  const RankOut* lead = nullptr;
  for (const RankOut& r : ranks)
    if (r.reporting) lead = &r;
  if (lead == nullptr) {
    round.why = "no reporting rank";
    return round;
  }

  round.checksum = lead->checksum;
  round.counters = lead->counters;
  const double sent = round.counters["sent_messages"];
  const double received = round.counters["received_messages"];
  if (lead->checksum != plan.reference) {
    round.why = "checksum differs from the sim reference";
    return round;
  }
  if (lead->dsm_ops != plan.expected_ops) {
    round.why = "op count differs from the scenario";
    return round;
  }
  if (sent != received) {
    round.why = "sent_messages != received_messages";
    return round;
  }

  std::int64_t first_op = lead->joined_ns;
  std::array<LatencyHist, kNumKinds + 1> lat;
  for (const RankOut& r : ranks) {
    round.peak_rss_mib = std::max(round.peak_rss_mib, r.peak_rss_kib / 1024);
    for (const auto& [w, st] : r.workers) {
      first_op = std::min(first_op, st.first_op_ns);
      round.worker_window_ns += st.last_op_ns - st.first_op_ns;
      round.delay_ns += st.delay_ns;
      round.delays += st.delays;
      for (int k = 0; k < kNumKinds; ++k) {
        lat[k].Merge(st.lat[k]);
        lat[kNumKinds].Merge(st.lat[k]);
        round.busy_ns[k] += st.lat[k].sum_ns();
        round.kind_ops[k] += st.lat[k].count();
      }
    }
    for (std::size_t i = 0; i < kNumSpanNames; ++i) {
      pool.spans[i].count += r.table[i].count;
      pool.spans[i].busy_ns += r.table[i].busy_ns;
      pool.spans[i].self_ns += r.table[i].self_ns;
    }
  }
  for (std::size_t k = 0; k < lat.size(); ++k) {
    round.pct[k] = {lat[k].count(), lat[k].Quantile(0.50),
                    lat[k].Quantile(0.99), lat[k].Resolves(0.50),
                    lat[k].Resolves(0.99)};
  }
  round.setup_s = static_cast<double>(lead->window_open_ns - launch) / 1e9;
  round.window_s = static_cast<double>(lead->joined_ns - first_op) / 1e9;
  round.ops_per_s = static_cast<double>(plan.expected_ops) / round.window_s;
  round.vm_create_s = static_cast<double>(lead->vm_create_ns) / 1e9;
  round.quiesce_ms = static_cast<double>(lead->quiesce_ns) / 1e6;
  for (std::int64_t ns : lead->create_object_ns)
    round.create_object_us.push_back(static_cast<double>(ns) / 1e3);
  round.ok = true;
  if (perfetto) WritePerfetto(plan.perfetto_path, ranks, launch);
  return round;
}

// ---------------------------------------------------------------------------
// Result JSON.
// ---------------------------------------------------------------------------

/// One named metric: value (absent when it cannot be reported), unit, and
/// the number of samples behind it.
void Metric(JsonWriter& j, const std::string& name, bool has, double value,
            const char* unit, std::uint64_t samples) {
  j.Key(name).BeginObject();
  if (has) j.Key("value").Double(value);
  j.Key("unit").String(unit);
  j.Key("samples").Uint(samples);
  j.EndObject();
}

void Metric(JsonWriter& j, const std::string& name, double value,
            const char* unit, std::uint64_t samples) {
  Metric(j, name, true, value, unit, samples);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void EndToEnd(JsonWriter& j, const Pool& pool, std::uint64_t attempted,
              std::uint64_t failed) {
  const auto ok = pool.ok();
  double ops = 0;
  for (const Round* r : ok) ops += static_cast<double>(r->ops);
  const auto n = static_cast<std::uint64_t>(ok.size());
  j.Key("e2e").BeginObject();
  const auto timed = Timed(ok);
  const auto n_timed = static_cast<std::uint64_t>(timed.size());
  Metric(j, "ops_per_s", !timed.empty(), Rate(timed), "ops/s", n_timed);
  // Latency percentiles are medians over the timed rounds of each round's
  // percentile, reported only when every such round has enough samples.
  const auto pct = [&](const std::string& name, std::size_t k) {
    std::uint64_t count = 0;
    bool has_p50 = !timed.empty(), has_p99 = !timed.empty();
    for (const Round* r : timed) {
      count += r->pct[k].count;
      has_p50 = has_p50 && r->pct[k].has_p50;
      has_p99 = has_p99 && r->pct[k].has_p99;
    }
    Metric(j, name + "_p50_us", has_p50,
           MedianOf(timed, [k](const Round& r) { return r.pct[k].p50_ns; }) /
               1e3,
           "us", count);
    Metric(j, name + "_p99_us", has_p99,
           MedianOf(timed, [k](const Round& r) { return r.pct[k].p99_ns; }) /
               1e3,
           "us", count);
  };
  for (std::size_t k = 0; k < kNumKinds; ++k) pct(kKindNames[k], k);
  pct("op", kNumKinds);
  const auto total_ops = static_cast<std::uint64_t>(ops);
  Metric(j, "msgs_per_op", !ok.empty(), Ratio(SumOf(ok, "messages"), ops),
         "msg/op", total_ops);
  Metric(j, "wire_bytes_per_op", !ok.empty(),
         Ratio(SumOf(ok, "bytes") - SumOf(ok, "wire_delta_bytes_saved"), ops),
         "B/op", total_ops);
  Metric(j, "setup_s", !timed.empty(),
         MedianOf(timed, [](const Round& r) { return r.setup_s; }), "s",
         n_timed);
  double rss = 0;  // a mean: per-round peaks differ by a few pages
  for (const Round* r : ok) rss += r->peak_rss_mib;
  Metric(j, "peak_rss_mib", !ok.empty(), Ratio(rss, static_cast<double>(n)),
         "MiB", n);
  Metric(j, "error_rate",
         Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "ratio", attempted);
  j.EndObject();
}

void Layers(JsonWriter& j, const Pool& traced, const Pool& untraced,
            const DriveResult& d) {
  const auto ok = traced.ok();
  const auto n = static_cast<std::uint64_t>(ok.size());
  double ops = 0, window = 0, delay = 0, delays = 0;
  std::vector<double> create_us;
  for (const Round* r : ok) {
    ops += static_cast<double>(r->ops);
    window += static_cast<double>(r->worker_window_ns);
    delay += static_cast<double>(r->delay_ns);
    delays += static_cast<double>(r->delays);
    create_us.insert(create_us.end(), r->create_object_us.begin(),
                     r->create_object_us.end());
  }
  const auto total_ops = static_cast<std::uint64_t>(ops);
  const auto per_op = [&](const std::string& c) {
    return Ratio(SumOf(ok, c), ops);
  };
  // Means over rounds: the program's power-of-two histograms quantize each
  // round's percentiles, so a median of rounds would repeat bucket edges.
  const auto per_round = [&](const std::string& c) {
    return Ratio(SumOf(ok, c), static_cast<double>(n));
  };

  j.Key("layers").BeginObject();
  Metric(j, "gos.vm_create_s",
         MedianOf(ok, [](const Round& r) { return r.vm_create_s; }), "s", n);
  Metric(j, "gos.create_object_us", Median(create_us), "us",
         create_us.size());
  Metric(j, "gos.quiesce_ms",
         MedianOf(ok, [](const Round& r) { return r.quiesce_ms; }), "ms", n);
  for (int k = 0; k < kNumKinds; ++k) {
    double count = 0, busy = 0;
    for (const Round* r : ok) {
      count += static_cast<double>(r->kind_ops[k]);
      busy += r->busy_ns[k];
    }
    const std::string base = std::string("gos.") + kKindNames[k];
    Metric(j, base + ".count", Ratio(count, static_cast<double>(n)), "count",
           n);
    Metric(j, base + ".busy_pct", 100 * Ratio(busy, window), "%",
           static_cast<std::uint64_t>(count));
  }
  Metric(j, "workload.delay.busy_pct", 100 * Ratio(delay, window), "%",
         static_cast<std::uint64_t>(delays));

  Metric(j, "dsm.fault_ins_per_op", per_op("fault_ins"), "count/op", total_ops);
  Metric(j, "dsm.rtt_obj_p50_us", per_round("rtt_obj.p50_ns") / 1e3, "us",
         static_cast<std::uint64_t>(SumOf(ok, "rtt_obj.count")));
  Metric(j, "dsm.rtt_obj_p99_us", per_round("rtt_obj.p99_ns") / 1e3, "us",
         static_cast<std::uint64_t>(SumOf(ok, "rtt_obj.count")));
  Metric(j, "dsm.redirect_hops_per_op", per_op("redirect_hops"), "count/op",
         total_ops);
  Metric(j, "dsm.mig_fault_ins_per_op", per_op("rtt_mig.count"), "count/op",
         total_ops);
  // Printed for attribution only (not in BENCHMARK.json): workloads that
  // never migrate have no samples, so the mean covers rounds that have some.
  const auto mig_rtt = [&](const char* c) {
    double sum = 0, rounds = 0;
    for (const Round* r : ok) {
      if (r->counters.at("rtt_mig.count") == 0) continue;
      sum += r->counters.at(c);
      rounds += 1;
    }
    return Ratio(sum, rounds) / 1e3;
  };
  const auto mig_samples =
      static_cast<std::uint64_t>(SumOf(ok, "rtt_mig.count"));
  Metric(j, "dsm.rtt_mig_p50_us", mig_samples > 0, mig_rtt("rtt_mig.p50_ns"),
         "us", mig_samples);
  Metric(j, "dsm.rtt_mig_p99_us", mig_samples > 0, mig_rtt("rtt_mig.p99_ns"),
         "us", mig_samples);
  Metric(j, "dsm.diffs_per_op", per_op("diffs_created"), "count/op",
         total_ops);
  Metric(j, "dsm.diff_create_ns", d.diff_create_ns, "ns", 1);
  Metric(j, "dsm.diff_apply_ns", d.diff_apply_ns, "ns", 1);
  for (const char* cat : {"obj", "mig", "diff", "redir", "sync"}) {
    Metric(j, std::string("dsm.msgs.") + cat + "_per_op",
           per_op(std::string("msgs.") + cat), "msg/op", total_ops);
    Metric(j, std::string("dsm.bytes.") + cat + "_per_op",
           per_op(std::string("bytes.") + cat), "B/op", total_ops);
  }
  const double decisions =
      SumOf(ok, "migrations") + SumOf(ok, "mig_rejections");
  Metric(j, "core.decisions_per_op", Ratio(decisions, ops), "count/op",
         total_ops);
  Metric(j, "core.migration_accept_ratio",
         Ratio(SumOf(ok, "migrations"), decisions), "ratio",
         static_cast<std::uint64_t>(decisions));
  Metric(j, "proto.encode_ns_per_msg", d.proto_encode_ns, "ns", 1);
  Metric(j, "proto.decode_ns_per_msg", d.proto_decode_ns, "ns", 1);
  const auto dwells =
      static_cast<std::uint64_t>(SumOf(ok, "mailbox_dwell.count"));
  Metric(j, "runtime.mailbox_dwell_p50_us",
         per_round("mailbox_dwell.p50_ns") / 1e3, "us", dwells);
  Metric(j, "runtime.mailbox_dwell_p99_us",
         per_round("mailbox_dwell.p99_ns") / 1e3, "us", dwells);
  Metric(j, "runtime.channel_handoff_p50_ns", d.handoff_p50_ns, "ns",
         d.handoff_samples);
  Metric(j, "runtime.channel_handoff_p99_ns", d.handoff_p99_ns, "ns",
         d.handoff_samples);
  Metric(j, "runtime.mailbox_overflow_allocs",
         per_round("mailbox_overflow_allocs"), "count", n);
  const double messages = SumOf(ok, "messages");
  Metric(j, "netio.shm_msg_ratio", Ratio(SumOf(ok, "shm_msgs"), messages),
         "ratio", static_cast<std::uint64_t>(messages));
  Metric(j, "netio.socket_writes_per_msg",
         Ratio(SumOf(ok, "socket_writes"), messages), "count/msg",
         static_cast<std::uint64_t>(messages));
  Metric(j, "netio.coalesced_frame_ratio",
         Ratio(SumOf(ok, "wire_frames_coalesced"), SumOf(ok, "wire_frames")),
         "ratio", static_cast<std::uint64_t>(SumOf(ok, "wire_frames")));
  Metric(j, "netio.socket_write_p50_us", per_round("socket_write.p50_ns") / 1e3,
         "us", static_cast<std::uint64_t>(SumOf(ok, "socket_write.count")));
  Metric(j, "netio.socket_write_p99_us", per_round("socket_write.p99_ns") / 1e3,
         "us", static_cast<std::uint64_t>(SumOf(ok, "socket_write.count")));
  Metric(j, "netio.heartbeat_rtt_p50_us",
         per_round("heartbeat_rtt_p50_us"), "us",
         static_cast<std::uint64_t>(SumOf(ok, "heartbeat_links")));
  Metric(j, "netio.frame_encode_ns", d.frame_encode_ns, "ns", 1);
  Metric(j, "netio.frame_decode_ns", d.frame_decode_ns, "ns", 1);
  const double hits = SumOf(ok, "wire_delta_hits");
  const double probes = hits + SumOf(ok, "wire_delta_misses");
  Metric(j, "netio.delta_hit_ratio", Ratio(hits, probes), "ratio",
         static_cast<std::uint64_t>(probes));
  Metric(j, "netio.delta_bytes_saved_per_op", per_op("wire_delta_bytes_saved"),
         "B/op", total_ops);
  Metric(j, "netio.delta_encode_ns", d.delta_encode_ns, "ns", 1);
  Metric(j, "netio.rx_buffer_allocs", per_round("rx_buffer_allocs"), "count",
         n);
  const auto plain = untraced.ok();
  const double base = Rate(Timed(plain));
  const double with = Rate(Timed(ok));
  Metric(j, "bench.trace_overhead_pct", 100 * Ratio(base - with, base), "%",
         plain.size() + n);
  j.EndObject();

  j.Key("span_table").BeginArray();
  for (std::size_t i = 0; i < kNumSpanNames; ++i) {
    const LayerRow& row = traced.spans[i];
    if (row.count == 0) continue;
    j.BeginObject();
    j.Key("name").String(SpanNameStr(static_cast<SpanName>(i)));
    j.Key("count").Uint(row.count);
    j.Key("busy_s").Double(row.busy_ns / 1e9);
    j.Key("self_s").Double(row.self_ns / 1e9);
    j.EndObject();
  }
  j.EndArray();
}

void RoundsJson(JsonWriter& j, const std::vector<const Round*>& rounds) {
  j.Key("rounds").BeginArray();
  for (const Round* r : rounds) {
    j.BeginObject();
    j.Key("traced").Bool(r->traced);
    j.Key("ok").Bool(r->ok);
    if (!r->ok) j.Key("why").String(r->why);
    j.Key("ops").Uint(r->ops);
    j.Key("setup_s").Double(r->setup_s);
    j.Key("window_s").Double(r->window_s);
    j.Key("ops_per_s").Double(r->ops_per_s);
    j.Key("peak_rss_mib").Double(r->peak_rss_mib);
    j.Key("cpu_steal_pct").Double(r->steal_pct);
    j.Key("p50_us").BeginObject();
    for (std::size_t k = 0; k < r->pct.size(); ++k)
      if (r->pct[k].has_p50)
        j.Key(k < kNumKinds ? kKindNames[k] : "op").Double(r->pct[k].p50_ns /
                                                           1e3);
    j.EndObject();
    j.EndObject();
  }
  j.EndArray();
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string CpuModel() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void Provenance(JsonWriter& j, const Workload& w,
                const workload::PatternParams& p, double seconds,
                double steal_pct) {
  const gos::VmOptions o = MeshDefaults(w);
  j.Key("provenance").BeginObject();
  j.Key("nproc").Int(sysconf(_SC_NPROCESSORS_ONLN));
  j.Key("cpu_model").String(CpuModel());
  j.Key("load").String("closed loop, one worker per rank");
  j.Key("ranks").Uint(kRanks);
  j.Key("processes").Uint(kRanks / o.sockets.ranks_per_proc);
  j.Key("ranks_per_proc").Uint(o.sockets.ranks_per_proc);
  j.Key("workers").Uint(p.nodes);
  j.Key("io_threads").Uint(o.sockets.io_threads);
  j.Key("shm").Bool(o.sockets.shm);
  j.Key("wire_delta").Bool(o.sockets.wire_delta);
  j.Key("batch_frames").Bool(o.sockets.batch_frames);
  j.Key("heartbeat_interval_ms").Uint(o.sockets.heartbeat_interval_ms);
  j.Key("histograms").Bool(o.histograms);
  j.Key("policy").String(o.dsm.policy);
  j.Key("pattern").String(p.pattern);
  j.Key("objects").Uint(p.objects);
  j.Key("object_bytes").Uint(p.object_bytes);
  j.Key("reps_per_round").Uint(p.repetitions);
  j.Key("seed").Uint(p.seed);
  j.Key("run_seconds").Double(seconds);
  j.Key("cpu_steal_pct").Double(steal_pct);
  j.EndObject();
}

/// Count, total and digest of the think-time delays the seed produced.
void DelaySchedule(JsonWriter& j, const workload::Scenario& s) {
  std::uint64_t count = 0, total = 0, digest = kFnvOffsetBasis;
  for (std::uint32_t w = 0; w < s.workers.size(); ++w) {
    const auto& prog = s.workers[w].program;
    for (std::uint64_t i = 0; i < prog.size(); ++i) {
      if (prog[i].kind != OpKind::kDelay) continue;
      ++count;
      total += prog[i].arg;
      digest = FnvFold64(FnvFold64(FnvFold64(digest, w), i), prog[i].arg);
    }
  }
  j.Key("delay_schedule").BeginObject();
  j.Key("count").Uint(count);
  j.Key("total_ns").Uint(total);
  j.Key("digest").String(Hex(digest));
  j.EndObject();
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string name = flags.Get("workload");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (name == w.name) wl = &w;
  if (wl == nullptr) {
    std::fprintf(stderr, "dsmbench: unknown --workload '%s'\n", name.c_str());
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string out = flags.Get("out");
  const std::string scratch = flags.Get("scratch");
  const bool corrupt = flags.GetBool("corrupt-reference");
  workload::PatternParams params;
  params.pattern = wl->pattern;
  params.nodes = kRanks;
  params.objects = kObjects;
  params.object_bytes = wl->object_bytes;
  params.repetitions = wl->reps;
  params.seed = seed;
  if (!flags.UnusedFlags().empty() || out.empty() || scratch.empty() ||
      seconds <= 0) {
    std::fprintf(stderr, "dsmbench: bad arguments (see the usage comment)\n");
    return 2;
  }
  std::filesystem::create_directories(scratch);

  Plan plan;
  plan.workload = wl;
  plan.scenario = workload::GeneratePattern(params);
  plan.scratch = scratch;
  for (const workload::WorkerSpec& w : plan.scenario.workers)
    for (const workload::Op& op : w.program)
      plan.expected_ops +=
          op.kind != OpKind::kDelay && op.kind != OpKind::kPhaseMark;
  if (trace)
    plan.perfetto_path = scratch + "/" + wl->name + "-seed" +
                         std::to_string(seed) + ".perfetto.json";
  std::filesystem::remove(plan.perfetto_path);

  const Reference ref = SimReference(plan.scenario, scratch);
  // The test hook flips one bit of the reference so every round must fail.
  plan.reference = ref.checksum ^ (corrupt ? 1 : 0);

  Pool untraced, traced;
  std::uint64_t attempted = 0, failed = 0;
  CpuTicks run_ticks;
  if (!ref.ok || ref.dsm_ops != plan.expected_ops) {
    attempted = failed = plan.expected_ops;
    std::fprintf(stderr, "dsmbench: %s\n",
                 ref.ok ? "sim reference op count differs" : ref.why.c_str());
  } else {
    run_ticks = ReadCpuTicks();
    const std::int64_t start = NowNs();
    for (int i = 0;; ++i) {
      const bool tr = trace && i % 2 == 1;
      Pool& pool = tr ? traced : untraced;
      const bool first_traced = tr && traced.rounds.empty();
      pool.rounds.push_back(RunRound(plan, i, tr, first_traced, pool));
      const Round& r = pool.rounds.back();
      attempted += r.ops;
      if (!r.ok) {
        failed += r.ops;
        std::fprintf(stderr, "dsmbench: round %d failed: %s\n", i,
                     r.why.c_str());
        break;  // a broken build of the program should fail fast
      }
      const bool time_left =
          static_cast<double>(NowNs() - start) / 1e9 < seconds;
      if (!time_left && (!trace || !traced.rounds.empty())) break;
    }
  }

  DriveResult drives;
  if (trace && !traced.ok().empty()) {
    const auto ok = traced.ok();
    MsgMix mix;
    for (std::size_t c = 0; c < stats::kNumMsgCats; ++c) {
      const std::string cat(stats::MsgCatName(static_cast<stats::MsgCat>(c)));
      mix.messages[c] = SumOf(ok, "msgs." + cat);
      mix.bytes[c] = SumOf(ok, "bytes." + cat);
    }
    // The bytes one write dirties, as the pattern generated them (0 = all).
    std::uint32_t dirty = wl->object_bytes;
    for (const workload::Op& op : plan.scenario.workers[0].program)
      if (op.kind == OpKind::kWrite && op.arg != 0)
        dirty = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(op.arg, dirty));
    drives = RunDrives(mix, wl->object_bytes, dirty);
  }

  std::ofstream os(out, std::ios::trunc);
  JsonWriter j(os);
  j.BeginObject();
  j.Key("workload").String(wl->name);
  j.Key("trace").Bool(trace);
  Provenance(j, *wl, params, seconds, StealPct(run_ticks, ReadCpuTicks()));
  j.Key("reference_checksum").String(Hex(ref.checksum));
  j.Key("reference_corrupted").Bool(corrupt);
  std::vector<const Round*> all;
  for (const Pool* p : {&untraced, &traced})
    for (const Round& r : p->rounds) all.push_back(&r);
  const auto first_ok = std::find_if(
      all.begin(), all.end(), [](const Round* r) { return r->ok; });
  j.Key("checksum").String(
      first_ok == all.end() ? "" : Hex((*first_ok)->checksum));
  DelaySchedule(j, plan.scenario);
  j.Key("attempted").Uint(attempted);
  j.Key("failed").Uint(failed);
  RoundsJson(j, all);
  EndToEnd(j, untraced, attempted, failed);
  if (trace) {
    Layers(j, traced, untraced, drives);
    j.Key("perfetto").String(plan.perfetto_path);
  }
  j.EndObject();
  os << "\n";
  os.close();
  return os ? (failed == 0 ? 0 : 1) : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dsmbench: %s\n", e.what());
    return 2;
  }
}
