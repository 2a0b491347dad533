// Benchmark-side spans: one record per call the benchmark makes into a
// layer, kept in memory by the thread that made it and shipped to the
// parent process when the rank tears down.
//
// Spans are recorded only around the benchmark's own calls (a worker's
// Env::Read, the lead's Vm::Quiesce, ...); the program itself records no
// spans. Each thread owns one SpanLog, so recording takes no lock.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/check.h"
#include "src/util/serde.h"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kWorker,            // one worker's whole program
  kRead,              // Env::Read
  kWrite,             // Env::Write
  kAcquire,           // Env::Acquire
  kRelease,           // Env::Release
  kBarrier,           // Env::Barrier
  kDelay,             // think time between ops (Env::Delay)
  kVmCreate,          // gos::Vm construction: connect, handshake, shm attach
  kLeadMain,          // the lead's application main thread
  kCreateObject,      // Vm::CreateObject
  kCreateSync,        // Vm::CreateLock / Vm::CreateBarrier
  kResetMeasurement,  // Vm::ResetMeasurement: opens the measured window
  kSpawn,             // Vm::Spawn of every worker
  kJoin,              // Vm::Join of every worker
  kQuiesce,           // Vm::Quiesce
  kReport,            // Vm::Report: the cluster stats gather
  kDigest,            // reading back final object contents
  kCount,
};

constexpr std::size_t kNumSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

inline std::string_view SpanNameStr(SpanName n) {
  constexpr std::array<std::string_view, kNumSpanNames> kNames = {
      "bench.worker",      "gos.read",        "gos.write",
      "gos.acquire",       "gos.release",     "gos.barrier",
      "workload.delay",    "gos.vm_create",   "bench.lead_main",
      "gos.create_object", "gos.create_sync", "gos.reset_measurement",
      "gos.spawn",         "gos.join",        "gos.quiesce",
      "gos.report",        "bench.digest"};
  return kNames[static_cast<std::size_t>(n)];
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t ordinal = 0;  // op ordinal within the worker's program
  std::int32_t parent = -1;   // index of the enclosing span in the same log
  SpanName name = SpanName::kWorker;
};

/// Count, busy time (sum of durations) and self time (busy time minus the
/// time covered by direct children) per span name.
struct LayerRow {
  std::uint64_t count = 0;
  double busy_ns = 0;
  double self_ns = 0;
};
using LayerTable = std::array<LayerRow, kNumSpanNames>;

class SpanLog {
 public:
  /// `thread` labels the log in the Perfetto file: the worker index, or
  /// kLeadThread for the lead's main thread.
  static constexpr std::uint32_t kLeadThread = 1000;

  SpanLog(std::uint32_t thread, bool enabled)
      : thread_(thread), enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }
  std::uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Records a finished span; returns its index (-1 when disabled).
  std::int32_t Add(SpanName name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::uint64_t ordinal = 0) {
    if (!enabled_) return -1;
    spans_.push_back({start_ns, end_ns, ordinal, parent, name});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Opens a span whose end is filled in by Close.
  std::int32_t Open(SpanName name, std::int64_t start_ns,
                    std::int32_t parent = -1) {
    return Add(name, start_ns, start_ns, parent);
  }
  void Close(std::int32_t index, std::int64_t end_ns) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }

  void AccumulateInto(LayerTable& table) const {
    for (const Span& s : spans_) {
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      LayerRow& row = table[static_cast<std::size_t>(s.name)];
      row.count += 1;
      row.busy_ns += dur;
      row.self_ns += dur;
      if (s.parent >= 0) {
        const Span& p = spans_[static_cast<std::size_t>(s.parent)];
        table[static_cast<std::size_t>(p.name)].self_ns -= dur;
      }
    }
  }

  /// Writes at most `cap` spans (the first ones) for the Perfetto file.
  /// A kept span's parent always precedes it, so parents survive the cap.
  void Encode(hmdsm::Writer& w, std::size_t cap) const {
    const std::size_t n = spans_.size() < cap ? spans_.size() : cap;
    w.u32(thread_);
    w.u64(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      w.i64(s.start_ns);
      w.i64(s.end_ns);
      w.u64(s.ordinal);
      w.i64(s.parent);
      w.u8(static_cast<std::uint8_t>(s.name));
    }
  }

  static SpanLog Decode(hmdsm::Reader& r) {
    SpanLog log(r.u32(), true);
    const std::uint64_t n = r.u64();
    HMDSM_CHECK_MSG(n <= r.remaining() / 33, "span log: bad span count");
    log.spans_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      Span s;
      s.start_ns = r.i64();
      s.end_ns = r.i64();
      s.ordinal = r.u64();
      s.parent = static_cast<std::int32_t>(r.i64());
      const std::uint8_t name = r.u8();
      HMDSM_CHECK_MSG(name < kNumSpanNames, "span log: bad span name");
      HMDSM_CHECK_MSG(s.parent < static_cast<std::int64_t>(i),
                      "span log: parent after child");
      s.name = static_cast<SpanName>(name);
      log.spans_.push_back(s);
    }
    return log;
  }

 private:
  std::uint32_t thread_;
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
