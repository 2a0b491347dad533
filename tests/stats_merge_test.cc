// Per-node recorder aggregation: Recorder::Merge and Transport::Totals,
// plus the counter registry's round trip through RunReport serde and JSON.
#include "src/net/network.h"
#include "src/stats/stats.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "src/gos/vm.h"
#include "src/stats/json.h"
#include "src/util/rng.h"

namespace hmdsm::stats {
namespace {

TEST(RecorderMerge, SumsCategoriesAndEvents) {
  Recorder a, b;
  a.RecordMessage(MsgCat::kObj, 100);
  a.Bump(Ev::kMigrations, 2);
  b.RecordMessage(MsgCat::kObj, 50);
  b.RecordMessage(MsgCat::kSync, 40);
  b.Bump(Ev::kMigrations, 3);
  b.Bump(Ev::kDiffBytes, 128);

  a.Merge(b);
  EXPECT_EQ(a.Cat(MsgCat::kObj).messages, 2u);
  EXPECT_EQ(a.Cat(MsgCat::kObj).bytes, 150u);
  EXPECT_EQ(a.Cat(MsgCat::kSync).messages, 1u);
  EXPECT_EQ(a.Count(Ev::kMigrations), 5u);
  EXPECT_EQ(a.Count(Ev::kDiffBytes), 128u);
  EXPECT_EQ(a.TotalMessages(true), 3u);
  EXPECT_EQ(a.TotalBytes(true), 190u);
  // b is untouched.
  EXPECT_EQ(b.TotalMessages(true), 2u);
}

TEST(RecorderMerge, CombinesPerNodeTablesGrowingAsNeeded) {
  Recorder a, b;
  a.SetNodeCount(2);
  b.SetNodeCount(4);
  a.RecordSent(1, 10);
  b.RecordSent(1, 5);
  b.RecordSent(3, 7);
  b.RecordReceived(2, 9);

  a.Merge(b);
  EXPECT_EQ(a.SentBy(1).messages, 2u);
  EXPECT_EQ(a.SentBy(1).bytes, 15u);
  EXPECT_EQ(a.SentBy(3).bytes, 7u);  // table grew to cover node 3
  EXPECT_EQ(a.ReceivedBy(2).messages, 1u);
  EXPECT_EQ(a.SentBy(0).messages, 0u);
}

TEST(RecorderMerge, MergeIntoFreshRecorderEqualsCopy) {
  Recorder src;
  src.RecordMessage(MsgCat::kDiff, 77);
  src.Bump(Ev::kLockAcquires, 4);
  Recorder dst;
  dst.Merge(src);
  EXPECT_EQ(dst.Cat(MsgCat::kDiff).bytes, 77u);
  EXPECT_EQ(dst.Count(Ev::kLockAcquires), 4u);
}

TEST(TransportTotals, NetworkAttributesPerNodeAndMergesToRunTotals) {
  sim::Kernel kernel;
  net::Network network(kernel, net::HockneyModel(70.0, 12.5), 3);
  for (net::NodeId n = 0; n < 3; ++n)
    network.SetHandler(n, [](net::Packet&&) {});
  kernel.ScheduleAt(0, [&] {
    network.Send(0, 1, MsgCat::kObj, Bytes(100));
    network.Send(1, 2, MsgCat::kDiff, Bytes(30));
    network.Send(0, 0, MsgCat::kDiff, Bytes(8));  // self-send: not charged
  });
  kernel.Run();

  // Send halves live in the senders' recorders, receive halves in the
  // receivers' — each node only ever touches its own recorder.
  EXPECT_EQ(network.RecorderFor(0).SentBy(0).messages, 1u);
  EXPECT_EQ(network.RecorderFor(1).SentBy(1).messages, 1u);
  EXPECT_EQ(network.RecorderFor(1).ReceivedBy(1).messages, 1u);
  EXPECT_EQ(network.RecorderFor(2).ReceivedBy(2).messages, 1u);
  EXPECT_EQ(network.RecorderFor(2).SentBy(2).messages, 0u);
  EXPECT_EQ(network.RecorderFor(0).Cat(MsgCat::kObj).messages, 1u);
  EXPECT_EQ(network.RecorderFor(1).Cat(MsgCat::kDiff).messages, 1u);

  const Recorder totals = network.Totals();
  EXPECT_EQ(totals.TotalMessages(true), 2u);
  EXPECT_EQ(totals.TotalBytes(true),
            100u + 30u + 2 * net::Transport::kHeaderBytes);
  EXPECT_EQ(totals.SentBy(0).messages, 1u);
  EXPECT_EQ(totals.ReceivedBy(2).messages, 1u);

  network.ResetStats();
  EXPECT_EQ(network.Totals().TotalMessages(true), 0u);
}

TEST(RecorderSerde, RoundTripPreservesEverything) {
  Recorder rec;
  rec.SetNodeCount(3);
  rec.RecordMessage(MsgCat::kObj, 140);
  rec.RecordMessage(MsgCat::kDiff, 60);
  rec.RecordSent(1, 140);
  rec.RecordSent(1, 60);
  rec.RecordReceived(2, 200);
  rec.Bump(Ev::kMigrations, 4);
  rec.Bump(Ev::kRedirectHops, 9);

  Writer w;
  rec.Encode(w);
  const Bytes wire = w.take();
  Reader r(wire);
  const Recorder back = Recorder::Decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.Cat(MsgCat::kObj).messages, 1u);
  EXPECT_EQ(back.Cat(MsgCat::kObj).bytes, 140u);
  EXPECT_EQ(back.Cat(MsgCat::kDiff).messages, 1u);
  EXPECT_EQ(back.Count(Ev::kMigrations), 4u);
  EXPECT_EQ(back.Count(Ev::kRedirectHops), 9u);
  EXPECT_EQ(back.SentBy(1).messages, 2u);
  EXPECT_EQ(back.SentBy(1).bytes, 200u);
  EXPECT_EQ(back.ReceivedBy(2).messages, 1u);
  EXPECT_EQ(back.TotalSent().messages, 2u);
  EXPECT_EQ(back.TotalReceived().messages, 1u);
}

TEST(RecorderSerde, DecodedRecordersMergeLikeLocalOnes) {
  // The sockets backend's stats gather: per-rank recorders serialized,
  // decoded at the lead, merged — totals must match an in-process merge.
  Recorder a, b;
  a.SetNodeCount(2);
  b.SetNodeCount(2);
  a.RecordMessage(MsgCat::kObj, 100);
  a.RecordSent(0, 100);
  b.RecordReceived(1, 100);
  b.Bump(Ev::kFaultIns);

  const auto round_trip = [](const Recorder& rec) {
    Writer w;
    rec.Encode(w);
    const Bytes wire = w.take();
    Reader r(wire);
    return Recorder::Decode(r);
  };
  Recorder direct;
  direct.SetNodeCount(2);
  direct.Merge(a);
  direct.Merge(b);
  Recorder gathered;
  gathered.SetNodeCount(2);
  gathered.Merge(round_trip(a));
  gathered.Merge(round_trip(b));
  EXPECT_EQ(gathered.TotalMessages(true), direct.TotalMessages(true));
  EXPECT_EQ(gathered.TotalSent().messages, direct.TotalSent().messages);
  EXPECT_EQ(gathered.TotalReceived().messages,
            direct.TotalReceived().messages);
  EXPECT_EQ(gathered.Count(Ev::kFaultIns), 1u);
  EXPECT_EQ(gathered.SentBy(0).bytes, direct.SentBy(0).bytes);
}

/// A recorder with a distinct value in every registry entry: each Ev, each
/// Lat histogram, each MsgCat's fault-in RTT histogram, plus one message,
/// one decision and one time-series sample.
Recorder EveryEntryRecorder() {
  Recorder rec;
  rec.SetNodeCount(2);
  rec.SampleTimeseries(0, 0);
  rec.RecordMessage(MsgCat::kObj, 300);
  rec.RecordSent(0, 300);
  rec.RecordReceived(1, 300);
  for (std::size_t e = 0; e < kNumEvs; ++e)
    rec.Bump(static_cast<Ev>(e), 1000 + e);
  for (std::size_t i = 0; i < kNumLats; ++i)
    rec.RecordLatency(static_cast<Lat>(i), 2000 + 100 * i);
  for (std::size_t c = 0; c < kNumMsgCats; ++c)
    rec.RecordRtt(static_cast<MsgCat>(c), 50'000 + 1000 * c);
  Decision d;
  d.obj = 7;
  d.migrate = true;
  d.destination = 1;
  rec.RecordDecision(d);
  rec.SampleTimeseries(0, 1'000'000);
  return rec;
}

TEST(RecorderSerde, RegistryRoundTripsThroughRunReportAndJson) {
  const Recorder rec = EveryEntryRecorder();
  Writer w;
  gos::EncodeReport(w, gos::MakeRunReport(rec, 1.5));
  const Bytes wire = w.take();
  Reader r(wire);
  const gos::RunReport back = gos::DecodeReport(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.seconds, 1.5);

  for (std::size_t e = 0; e < kNumEvs; ++e) {
    const auto ev = static_cast<Ev>(e);
    EXPECT_EQ(back.totals.Count(ev), 1000 + e) << EvName(ev);
  }
  for (std::size_t i = 0; i < kNumLats; ++i) {
    const auto lat = static_cast<Lat>(i);
    EXPECT_EQ(back.totals.Latency(lat), rec.Latency(lat)) << LatName(lat);
  }
  for (std::size_t c = 0; c < kNumMsgCats; ++c) {
    const auto cat = static_cast<MsgCat>(c);
    EXPECT_EQ(back.totals.Rtt(cat), rec.Rtt(cat)) << MsgCatName(cat);
    EXPECT_EQ(back.rtt[c].count, 1u) << MsgCatName(cat);
    EXPECT_EQ(back.rtt[c].p50, rec.Rtt(cat).P50()) << MsgCatName(cat);
  }
  EXPECT_EQ(back.totals.Ledger().decisions(), rec.Ledger().decisions());
  EXPECT_EQ(back.totals.Series().samples().size(), 1u);

  // The named fields MakeRunReport derives agree with the registry.
  const std::pair<std::uint64_t, Ev> named[] = {
      {back.migrations, Ev::kMigrations},
      {back.mig_rejections, Ev::kMigRejections},
      {back.redirect_hops, Ev::kRedirectHops},
      {back.diffs_created, Ev::kDiffsCreated},
      {back.exclusive_home_writes, Ev::kExclusiveHomeWrites},
      {back.fault_ins, Ev::kFaultIns},
      {back.socket_writes, Ev::kSocketWrites},
      {back.wire_frames, Ev::kWireFramesEnqueued},
      {back.wire_frames_coalesced, Ev::kWireFramesCoalesced},
      {back.wire_delta_hits, Ev::kWireDeltaHits},
      {back.wire_delta_misses, Ev::kWireDeltaMisses},
      {back.wire_delta_bytes_saved, Ev::kWireDeltaBytesSaved},
      {back.shm_msgs, Ev::kShmMsgs},
      {back.mailbox_overflow_allocs, Ev::kMailboxOverflowAllocs},
      {back.rx_buffer_allocs, Ev::kRxBufferAllocs},
  };
  for (const auto& [field, ev] : named)
    EXPECT_EQ(field, rec.Count(ev)) << EvName(ev);
  const std::pair<const gos::HistSummary*, Lat> summaries[] = {
      {&back.mailbox_dwell, Lat::kMailboxDwell},
      {&back.socket_write_ns, Lat::kSocketWrite},
      {&back.migration_first_access, Lat::kMigFirstAccess},
      {&back.adaptation, Lat::kAdaptation},
  };
  for (const auto& [summary, lat] : summaries) {
    EXPECT_EQ(summary->count, 1u) << LatName(lat);
    EXPECT_EQ(summary->p50, rec.Latency(lat).P50()) << LatName(lat);
  }
  EXPECT_EQ(back.messages, 1u);
  EXPECT_EQ(back.bytes, 300u);
  EXPECT_EQ(back.cat[static_cast<std::size_t>(MsgCat::kObj)].messages, 1u);
  EXPECT_EQ(back.sent_messages, 1u);
  EXPECT_EQ(back.received_bytes, 300u);

  std::ostringstream os;
  {
    JsonWriter j(os);
    j.BeginObject();
    WriteRecorderJson(j, back.totals);
    j.EndObject();
  }
  const std::string json = os.str();
  for (std::size_t e = 0; e < kNumEvs; ++e) {
    const std::string member = "\"" + std::string(EvName(static_cast<Ev>(e))) +
                               "\":" + std::to_string(1000 + e) + ",";
    EXPECT_NE(json.find(member), std::string::npos) << member << json;
  }
  for (std::size_t i = 0; i < kNumLats; ++i) {
    const std::string member = "\"" +
                               std::string(LatName(static_cast<Lat>(i))) +
                               "\":{\"count\":1,";
    EXPECT_NE(json.find(member), std::string::npos) << member << json;
  }
  for (std::size_t c = 0; c < kNumMsgCats; ++c) {
    const std::string member =
        "\"rtt_" + std::string(MsgCatName(static_cast<MsgCat>(c))) +
        "\":{\"count\":1,";
    EXPECT_NE(json.find(member), std::string::npos) << member << json;
  }
}

TEST(RecorderSerde, TruncatedOrCorruptReportIsRejected) {
  Writer w;
  gos::EncodeReport(w, gos::MakeRunReport(EveryEntryRecorder(), 1.5));
  const Bytes wire = w.take();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Reader r(ByteSpan(wire.data(), cut));
    EXPECT_THROW(gos::DecodeReport(r), CheckError) << "cut=" << cut;
  }
  // A corrupt byte anywhere either still decodes (it hit a counter value)
  // or raises CheckError; nothing else may escape.
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    Bytes bad = wire;
    bad[pos] ^= 0xff;
    Reader r(bad);
    try {
      gos::DecodeReport(r);
    } catch (const CheckError&) {
    }
  }
  SplitMix64 rng(12);
  for (int i = 0; i < 64; ++i) {
    Bytes junk(rng.next() % 2048);
    for (Byte& b : junk) b = static_cast<Byte>(rng.next());
    Reader r(junk);
    EXPECT_THROW(gos::DecodeReport(r), CheckError) << "blob " << i;
  }
}

}  // namespace
}  // namespace hmdsm::stats
