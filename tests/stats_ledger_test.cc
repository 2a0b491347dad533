// The decision ledger and windowed time-series: round-trips, merges, the
// capacity bound, and — because both travel inside recorder snapshots from
// peer ranks — the defensive decode paths: hostile record counts and
// truncation must be decode errors, never UB or allocations. The last test
// runs a real phased-writer scenario on the deterministic backend and
// checks the whole audit surface end to end: decisions recorded, the
// accounting identity (decisions == migrations + rejections), and a finite
// adaptation latency.
#include "src/stats/decision.h"

#include <gtest/gtest.h>

#include "src/stats/stats.h"
#include "src/stats/timeseries.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace hmdsm::stats {
namespace {

Decision MakeDecision(std::uint64_t obj, std::int64_t at_ns, bool migrate) {
  Decision d;
  d.obj = obj;
  d.epoch = 2;
  d.home = 1;
  d.requester = 3;
  d.consecutive_writes = 4;
  d.consecutive_writer = 3;
  d.redirects = 7;
  d.exclusive_home_writes = 5;
  d.threshold = 3.5;
  d.object_bytes = 256;
  d.for_write = true;
  d.migrate = migrate;
  d.destination = migrate ? 3 : 1;
  d.at_ns = at_ns;
  return d;
}

TEST(Decision, WireShapeMatchesDeclaredSize) {
  Writer w;
  MakeDecision(42, 1000, true).Encode(w);
  EXPECT_EQ(w.size(), DecisionLedger::kWireBytes);
}

TEST(Decision, RoundTrip) {
  const Decision in = MakeDecision(42, 1000, true);
  Writer w;
  in.Encode(w);
  Reader r(ByteSpan(w.buffer()));
  EXPECT_EQ(Decision::Decode(r), in);
  EXPECT_TRUE(r.done());
}

TEST(Decision, CorruptFlagsByteIsRejected) {
  Writer w;
  MakeDecision(42, 1000, false).Encode(w);
  Bytes wire = w.take();
  // The flags byte sits right before destination(u32) + at_ns(i64).
  wire[wire.size() - 13] = 0xff;
  Reader r{ByteSpan(wire)};
  EXPECT_THROW(Decision::Decode(r), CheckError);
}

TEST(DecisionLedger, RoundTripPreservesOrderAndDropped) {
  DecisionLedger in;
  for (int i = 0; i < 5; ++i)
    in.Record(MakeDecision(i, 100 * i, i % 2 == 0));
  Writer w;
  in.Encode(w);
  Reader r(ByteSpan(w.buffer()));
  const DecisionLedger out = DecisionLedger::Decode(r);
  EXPECT_EQ(out, in);
  EXPECT_TRUE(r.done());
}

TEST(DecisionLedger, CapacityEvictsOldestAndCountsDropped) {
  DecisionLedger ledger;
  const std::size_t extra = 3;
  for (std::size_t i = 0; i < DecisionLedger::kCapacity + extra; ++i)
    ledger.Record(MakeDecision(i, static_cast<std::int64_t>(i), false));
  EXPECT_EQ(ledger.size(), DecisionLedger::kCapacity);
  EXPECT_EQ(ledger.dropped(), extra);
  // Oldest-first eviction: the survivors start at `extra`.
  EXPECT_EQ(ledger.decisions().front().obj, extra);
}

TEST(DecisionLedger, MergeConcatenatesAndSumsDropped) {
  DecisionLedger a;
  DecisionLedger b;
  a.Record(MakeDecision(1, 300, true));
  b.Record(MakeDecision(2, 100, false));
  b.Record(MakeDecision(3, 200, true));
  a.Merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.dropped(), 0u);
  // Sorted() re-orders the interleaved ranks into a timeline.
  const std::vector<Decision> timeline = a.Sorted();
  EXPECT_EQ(timeline[0].obj, 2u);
  EXPECT_EQ(timeline[1].obj, 3u);
  EXPECT_EQ(timeline[2].obj, 1u);
}

TEST(DecisionLedger, HostileCountIsRejected) {
  DecisionLedger in;
  in.Record(MakeDecision(1, 100, true));
  Writer w;
  in.Encode(w);
  Bytes wire = w.take();
  // The count is the u32 after the u64 dropped header. Claim more records
  // than the payload holds.
  wire[8] = 0xff;
  wire[9] = 0xff;
  Reader r{ByteSpan(wire)};
  EXPECT_THROW(DecisionLedger::Decode(r), CheckError);
}

TEST(DecisionLedger, TruncationIsRejected) {
  DecisionLedger in;
  for (int i = 0; i < 3; ++i) in.Record(MakeDecision(i, i, true));
  Writer w;
  in.Encode(w);
  const Bytes& wire = w.buffer();
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    Reader r(ByteSpan(wire.data(), cut));
    EXPECT_THROW(DecisionLedger::Decode(r), CheckError) << "cut=" << cut;
  }
}

Sample MakeSample(std::uint32_t node, std::int64_t at_ns) {
  Sample s;
  s.node = node;
  s.at_ns = at_ns;
  s.dt_ns = 10'000'000;
  s.msgs = 12;
  s.bytes = 4096;
  s.faults = 3;
  s.migrations = 1;
  for (std::size_t c = 0; c < kNumMsgCats; ++c) s.cat_msgs[c] = c + 1;
  return s;
}

TEST(Timeseries, SampleWireShapeMatchesDeclaredSize) {
  Writer w;
  MakeSample(0, 1000).Encode(w);
  EXPECT_EQ(w.size(), Timeseries::kWireBytes);
}

TEST(Timeseries, RoundTrip) {
  Timeseries in;
  for (int i = 0; i < 4; ++i) in.Append(MakeSample(i % 2, 100 * i));
  Writer w;
  in.Encode(w);
  Reader r(ByteSpan(w.buffer()));
  EXPECT_EQ(Timeseries::Decode(r), in);
  EXPECT_TRUE(r.done());
}

TEST(Timeseries, CapacityEvictsOldestAndCountsDropped) {
  Timeseries series;
  const std::size_t extra = 5;
  for (std::size_t i = 0; i < Timeseries::kCapacity + extra; ++i)
    series.Append(MakeSample(0, static_cast<std::int64_t>(i)));
  EXPECT_EQ(series.size(), Timeseries::kCapacity);
  EXPECT_EQ(series.dropped(), extra);
  EXPECT_EQ(series.samples().front().at_ns, static_cast<std::int64_t>(extra));
}

TEST(Timeseries, MergeKeepsNodeTags) {
  Timeseries a;
  Timeseries b;
  a.Append(MakeSample(0, 100));
  b.Append(MakeSample(1, 100));
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.samples()[0].node, 0u);
  EXPECT_EQ(a.samples()[1].node, 1u);
}

TEST(Timeseries, HostileCountIsRejected) {
  Timeseries in;
  in.Append(MakeSample(0, 100));
  Writer w;
  in.Encode(w);
  Bytes wire = w.take();
  wire[8] = 0xff;
  wire[9] = 0xff;
  Reader r{ByteSpan(wire)};
  EXPECT_THROW(Timeseries::Decode(r), CheckError);
}

TEST(Timeseries, TruncationIsRejected) {
  Timeseries in;
  for (int i = 0; i < 2; ++i) in.Append(MakeSample(0, i));
  Writer w;
  in.Encode(w);
  const Bytes& wire = w.buffer();
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    Reader r(ByteSpan(wire.data(), cut));
    EXPECT_THROW(Timeseries::Decode(r), CheckError) << "cut=" << cut;
  }
}

TEST(RecorderSampling, FirstCallPrimesWithoutEmitting) {
  Recorder rec;
  rec.RecordMessage(MsgCat::kObj, 128);
  // The first call only establishes the baseline.
  EXPECT_TRUE(rec.SampleTimeseries(0, 1'000'000));
  EXPECT_TRUE(rec.Series().empty());
  // Nothing moved since: quiet window, sample still emitted (zero deltas).
  EXPECT_FALSE(rec.SampleTimeseries(0, 2'000'000));
  ASSERT_EQ(rec.Series().size(), 1u);
  const Sample& quiet = rec.Series().samples()[0];
  EXPECT_EQ(quiet.msgs, 0u);
  EXPECT_EQ(quiet.dt_ns, 1'000'000);
  // Traffic arrives: the next window carries exactly the delta.
  rec.RecordMessage(MsgCat::kMig, 64);
  rec.Bump(Ev::kMigrations);
  EXPECT_TRUE(rec.SampleTimeseries(0, 3'000'000));
  ASSERT_EQ(rec.Series().size(), 2u);
  const Sample& busy = rec.Series().samples()[1];
  EXPECT_EQ(busy.msgs, 1u);
  EXPECT_EQ(busy.bytes, 64u);
  EXPECT_EQ(busy.migrations, 1u);
  EXPECT_EQ(busy.cat_msgs[static_cast<std::size_t>(MsgCat::kMig)], 1u);
}

TEST(RecorderSerde, V3RoundTripCarriesLedgerAndSeries) {
  Recorder in;
  in.SetNodeCount(3);
  in.RecordMessage(MsgCat::kObj, 128);
  in.Bump(Ev::kMigrations, 2);
  in.Bump(Ev::kMigRejections, 3);
  in.RecordDecision(MakeDecision(7, 500, true));
  in.RecordDecision(MakeDecision(8, 600, false));
  in.SampleTimeseries(1, 1'000'000);
  in.RecordMessage(MsgCat::kDiff, 32);
  in.SampleTimeseries(1, 2'000'000);
  Writer w;
  in.Encode(w);
  Reader r(ByteSpan(w.buffer()));
  const Recorder out = Recorder::Decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.Ledger(), in.Ledger());
  EXPECT_EQ(out.Series(), in.Series());
  EXPECT_EQ(out.Count(Ev::kMigRejections), 3u);
}

TEST(RecorderSerde, MergeAccumulatesLedgerAndSeries) {
  Recorder a;
  Recorder b;
  a.RecordDecision(MakeDecision(1, 100, true));
  b.RecordDecision(MakeDecision(2, 200, false));
  b.SampleTimeseries(1, 1'000'000);
  b.RecordMessage(MsgCat::kObj, 16);
  b.SampleTimeseries(1, 2'000'000);
  a.Merge(b);
  EXPECT_EQ(a.Ledger().size(), 2u);
  EXPECT_EQ(a.Series().size(), 1u);
}

TEST(RecorderSerde, UnsupportedVersionIsRejected) {
  Recorder in;
  in.RecordDecision(MakeDecision(1, 100, true));
  Writer w;
  in.Encode(w);
  Bytes wire = w.take();
  wire[0] = 1;  // pre-ledger serde version
  Reader r{ByteSpan(wire)};
  EXPECT_THROW(Recorder::Decode(r), CheckError);
}

// End-to-end on the deterministic backend: a phased writer under the
// adaptive policy must consult the migration policy (ledger entries), the
// accounting identity must hold exactly, and the phase markers the pattern
// emits must close at least one adaptation-latency measurement.
TEST(AuditEndToEnd, PhasedWriterProducesDecisionsAndAdaptationLatency) {
  workload::PatternParams params;
  params.pattern = "phased_writer";
  params.nodes = 4;
  params.objects = 2;
  params.repetitions = 16;
  gos::VmOptions vm;
  vm.nodes = params.nodes;
  vm.dsm.policy = "AT";
  vm.poll_interval_s = 0.01;  // sim tick chain: virtual-time sampling
  const workload::ScenarioResult res =
      workload::RunScenario(vm, workload::GeneratePattern(params));
  const gos::RunReport& r = res.report;
  ASSERT_GE(r.totals.Ledger().size(), 1u);
  EXPECT_EQ(r.totals.Ledger().size() + r.totals.Ledger().dropped(),
            r.migrations + r.mig_rejections);
  EXPECT_GE(r.adaptation.count, 1u);
  EXPECT_GT(r.adaptation.p50, 0u);
  EXPECT_FALSE(r.totals.Series().empty());
  // Every decision names a live node and carries the policy inputs.
  for (const Decision& d : r.totals.Ledger().decisions()) {
    EXPECT_LT(d.home, params.nodes);
    EXPECT_LT(d.requester, params.nodes);
    EXPECT_LT(d.destination, params.nodes);
    if (d.migrate) EXPECT_NE(d.destination, d.home);
  }
}

}  // namespace
}  // namespace hmdsm::stats
