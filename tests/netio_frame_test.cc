// The socket transport's frame codec: round trips for every frame type and
// — because frames come off a wire from an untrusted peer — the defensive
// decode paths: truncation, wrong type, trailing garbage, out-of-range
// enums, and hostile embedded lengths must all come back as errors, never
// as exceptions, UB, or giant allocations. The record layer under them (the
// wire-image builder and the record assembler every stream reader uses) is
// held to the same standard.
#include "src/netio/frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "src/dsm/diff.h"
#include "src/util/rng.h"

namespace hmdsm::netio {
namespace {

/// The production wire image of `frames` (AppendWireImage's scatter
/// segments), concatenated as the receiving stream sees it.
Bytes WireImage(std::vector<Bytes> frames) {
  std::vector<Bytes> segs;
  AppendWireImage(std::move(frames), &segs);
  Bytes out;
  for (const Bytes& seg : segs) out.insert(out.end(), seg.begin(), seg.end());
  return out;
}

/// The Batch frame the writer emits for `frames`: its wire image without
/// the record header.
Bytes BatchOf(std::vector<Bytes> frames) {
  const Bytes image = WireImage(std::move(frames));
  return Bytes(image.begin() + kRecordHeaderBytes, image.end());
}

/// Feeds `stream` through `rx` in pieces of at most `chunk` bytes (0 =
/// whatever the window takes), appending completed frames. False (with
/// `error`) once a record length is rejected.
bool Feed(RecordAssembler& rx, ByteSpan stream, std::size_t chunk,
          std::vector<Buf>* frames, std::string* error) {
  while (!stream.empty()) {
    const MutByteSpan window = rx.Window();
    std::size_t take = std::min(window.size(), stream.size());
    if (chunk != 0) take = std::min(take, chunk);
    std::copy_n(stream.begin(), take, window.begin());
    stream = stream.subspan(take);
    Buf frame;
    switch (rx.Commit(take, &frame, error)) {
      case RecordAssembler::Step::kMore:
        break;
      case RecordAssembler::Step::kFrame:
        frames->push_back(std::move(frame));
        break;
      case RecordAssembler::Step::kBadLength:
        return false;
    }
  }
  return true;
}

template <typename F>
F RoundTrip(const F& in) {
  const Bytes wire = Encode(in);
  F out;
  std::string error;
  EXPECT_TRUE(TryDecode(ByteSpan(wire), &out, &error)) << error;
  return out;
}

TEST(NetioFrame, HelloRoundTrip) {
  const HelloFrame out = RoundTrip(HelloFrame{kProtocolVersion, 3, 8});
  EXPECT_EQ(out.version, kProtocolVersion);
  EXPECT_EQ(out.node, 3u);
  EXPECT_EQ(out.node_count, 8u);
}

TEST(NetioFrame, DataRoundTrip) {
  DataFrame in;
  in.src = 2;
  in.dst = 5;
  in.cat = stats::MsgCat::kDiff;
  in.payload = Bytes{1, 2, 3, 4};
  const DataFrame out = RoundTrip(in);
  EXPECT_EQ(out.src, 2u);
  EXPECT_EQ(out.dst, 5u);
  EXPECT_EQ(out.cat, stats::MsgCat::kDiff);
  EXPECT_EQ(out.payload, in.payload);
}

TEST(NetioFrame, ThreadDoneRoundTripCarriesErrorAndResult) {
  ThreadDoneFrame in;
  in.seq = 42;
  in.error = "boom";
  in.result = Bytes{9, 9};
  const ThreadDoneFrame out = RoundTrip(in);
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.error, "boom");
  EXPECT_EQ(out.result, in.result);
}

RoundReplyFrame Reply(RoundOp op, std::uint64_t seq, Activity activity = {}) {
  RoundReplyFrame f;
  f.op = op;
  f.seq = seq;
  f.activity = activity;
  return f;
}

constexpr RoundOp kAllRoundOps[] = {RoundOp::kQuiesce, RoundOp::kStats,
                                   RoundOp::kReset, RoundOp::kShutdown};

TEST(NetioFrame, RoundRoundTripsEachOp) {
  for (const RoundOp op : kAllRoundOps) {
    for (const bool abort : {false, true}) {
      const RoundFrame out = RoundTrip(RoundFrame{op, 77, abort});
      EXPECT_EQ(out.op, op);
      EXPECT_EQ(out.seq, 77u);
      EXPECT_EQ(out.abort, abort);
    }
  }
}

TEST(NetioFrame, RoundReplyRoundTripsEachOp) {
  for (const RoundOp op : kAllRoundOps) {
    RoundReplyFrame in = Reply(op, 7, {100, 99, 50, 50});
    in.now_ns = 123456789;
    in.recorder.SetNodeCount(2);
    in.recorder.Bump(stats::Ev::kMigrations, 5);
    const RoundReplyFrame out = RoundTrip(in);
    EXPECT_EQ(out.op, op);
    EXPECT_EQ(out.seq, 7u);
    EXPECT_EQ(out.activity, (Activity{100, 99, 50, 50}));
    // Only a stats reply carries a clock and a recorder.
    const bool stats = op == RoundOp::kStats;
    EXPECT_EQ(out.now_ns, stats ? 123456789u : 0u);
    EXPECT_EQ(out.recorder.Count(stats::Ev::kMigrations), stats ? 5u : 0u);
  }
}

TEST(NetioFrame, StatsRoundReplyRoundTripsRecorderWithHistograms) {
  RoundReplyFrame in = Reply(RoundOp::kStats, 9);
  in.now_ns = 123456789;
  in.recorder.SetNodeCount(4);
  in.recorder.RecordMessage(stats::MsgCat::kObj, 123);
  in.recorder.RecordSent(2, 123);
  in.recorder.RecordRtt(stats::MsgCat::kObj, 1500);
  in.recorder.RecordLatency(stats::Lat::kMailboxDwell, 250);
  const RoundReplyFrame out = RoundTrip(in);
  EXPECT_EQ(out.seq, 9u);
  EXPECT_EQ(out.now_ns, 123456789u);
  EXPECT_EQ(out.recorder.Cat(stats::MsgCat::kObj).messages, 1u);
  EXPECT_EQ(out.recorder.Cat(stats::MsgCat::kObj).bytes, 123u);
  EXPECT_EQ(out.recorder.SentBy(2).messages, 1u);
  EXPECT_EQ(out.recorder.Rtt(stats::MsgCat::kObj).count(), 1u);
  EXPECT_EQ(out.recorder.Rtt(stats::MsgCat::kObj).max(), 1500u);
  EXPECT_EQ(out.recorder.Latency(stats::Lat::kMailboxDwell).count(), 1u);
}

// ---------------------------------------------------------------------------
// Defensive decoding
// ---------------------------------------------------------------------------

TEST(NetioFrameDefense, EmptyAndUnknownTypeAreRejected) {
  FrameType type;
  EXPECT_FALSE(PeekType(ByteSpan(), &type));
  const Bytes junk{0xEE, 1, 2, 3};
  EXPECT_FALSE(PeekType(ByteSpan(junk), &type));
  DataFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(junk), &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(NetioFrameDefense, WrongTypeIsRejected) {
  const Bytes wire = Encode(StartThreadFrame{1});
  ThreadDoneFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
}

TEST(NetioFrameDefense, TruncationIsAnErrorNotACrash) {
  DataFrame in;
  in.payload = Bytes(64, Byte{7});
  const Bytes wire = Encode(in);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    DataFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, TrailingGarbageIsRejected) {
  Bytes wire = Encode(RoundFrame{RoundOp::kQuiesce, 3, false});
  wire.push_back(0xAB);
  RoundFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameDefense, HostileEmbeddedLengthIsRejected) {
  // A data frame whose payload length claims 4 GiB but carries 4 bytes.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kData));
  w.u32(0);
  w.u32(1);
  w.u8(0);
  w.u32(0xFFFFFFFFu);  // length prefix
  w.u32(0xDEADBEEFu);  // only 4 actual bytes
  const Bytes wire = w.take();
  DataFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
}

TEST(NetioFrameDefense, OutOfRangeCategoryIsRejected) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kData));
  w.u32(0);
  w.u32(1);
  w.u8(0xFF);  // category far outside MsgCat
  w.bytes(Bytes{1});
  const Bytes wire = w.take();
  DataFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("category"), std::string::npos);
}

/// The head of a stats round reply up to its recorder: op, seq, the four
/// activity counters and the clock.
Writer StatsReplyHead() {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kRoundReply));
  w.u8(static_cast<std::uint8_t>(RoundOp::kStats));
  w.u64(1);  // seq
  for (int i = 0; i < 4; ++i) w.u64(0);  // activity counters
  w.u64(0);  // now_ns
  return w;
}

TEST(NetioFrameDefense, CorruptRecorderTableIsRejected) {
  // A hand-built stats reply whose recorder claims a 2^32-entry per-node
  // table: decode must fail before allocating anything of that size.
  Writer w = StatsReplyHead();
  w.u8(3);   // recorder serde version (v3: + decision ledger, timeseries)
  w.u32(static_cast<std::uint32_t>(stats::kNumMsgCats));
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    w.u64(0);
    w.u64(0);
  }
  w.u32(static_cast<std::uint32_t>(stats::kNumEvs));
  for (std::size_t i = 0; i < stats::kNumEvs; ++i) w.u64(0);
  w.u32(0xFFFFFFFFu);  // hostile sent-by table size, no data behind it
  const Bytes wire = w.take();
  RoundReplyFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
}

TEST(NetioFrameDefense, StatsReplyTruncationIsAnErrorNotACrash) {
  RoundReplyFrame in = Reply(RoundOp::kStats, 4, {1, 2, 3, 4});
  in.recorder.SetNodeCount(2);
  in.recorder.RecordRtt(stats::MsgCat::kObj, 1000);
  const Bytes wire = Encode(in);
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    RoundReplyFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, OutOfRangeRoundOpIsRejected) {
  Bytes round = Encode(RoundFrame{RoundOp::kShutdown, 1, true});
  round[1] = kNumRoundOps;  // the op byte follows the type byte
  RoundFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(round), &out, &error));
  EXPECT_NE(error.find("round op"), std::string::npos) << error;
  Bytes reply = Encode(Reply(RoundOp::kQuiesce, 1));
  reply[1] = 0xFF;
  RoundReplyFrame reply_out;
  EXPECT_FALSE(TryDecode(ByteSpan(reply), &reply_out, &error));
  EXPECT_NE(error.find("round op"), std::string::npos) << error;
}

TEST(NetioFrameDefense, RecorderRidesOnlyOnStatsReplies) {
  // A stats reply relabelled as a quiescence reply carries a recorder its
  // op does not allow (trailing garbage); a quiescence reply relabelled as
  // stats lacks one (truncation). Both are rejected.
  RoundReplyFrame stats_reply = Reply(RoundOp::kStats, 1);
  stats_reply.recorder.SetNodeCount(2);
  Bytes wire = Encode(stats_reply);
  wire[1] = static_cast<Byte>(RoundOp::kQuiesce);
  RoundReplyFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
  wire = Encode(Reply(RoundOp::kQuiesce, 1));
  wire[1] = static_cast<Byte>(RoundOp::kStats);
  error.clear();
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(NetioFrameDefense, HostileHistogramBucketCountIsRejected) {
  // A stats reply whose recorder's first RTT histogram claims 255 occupied
  // buckets (the real maximum is 64): rejected at the bound, before the
  // decoder walks 255 phantom bucket entries.
  Writer w = StatsReplyHead();
  w.u8(3);   // recorder serde version
  w.u32(static_cast<std::uint32_t>(stats::kNumMsgCats));
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    w.u64(0);
    w.u64(0);
  }
  w.u32(static_cast<std::uint32_t>(stats::kNumEvs));
  for (std::size_t i = 0; i < stats::kNumEvs; ++i) w.u64(0);
  w.u32(0);  // sent-by table
  w.u32(0);  // received-by table
  w.u32(static_cast<std::uint32_t>(stats::kNumMsgCats));
  w.u64(1);    // first histogram: count
  w.u64(1);    // sum
  w.u64(1);    // max
  w.u8(0xFF);  // hostile occupied-bucket count
  const Bytes wire = w.take();
  RoundReplyFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("bucket"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Batch frames (writer-side coalescing)
// ---------------------------------------------------------------------------

TEST(NetioFrameBatch, RoundTripPreservesOrderAndBytes) {
  DataFrame a;
  a.src = 1;
  a.dst = 0;
  a.cat = stats::MsgCat::kObj;
  a.payload = Bytes{1, 2, 3};
  const std::vector<Bytes> frames = {Encode(a), Encode(StartThreadFrame{7}),
                                     Encode(ShutdownDoneFrame{})};
  const Buf batch = BatchOf(frames);
  std::vector<Buf> inner;
  std::string error;
  ASSERT_TRUE(TryDecodeBatch(batch, &inner, &error)) << error;
  ASSERT_EQ(inner.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(inner[i], frames[i]) << "frame " << i;
  // The inner data frame decodes like it was never batched.
  DataFrame out;
  ASSERT_TRUE(TryDecode(inner[0], &out, &error)) << error;
  EXPECT_EQ(out.src, 1u);
  EXPECT_EQ(out.payload, a.payload);
}

TEST(NetioFrameBatch, DataPayloadDecodedFromABatchAliasesNoCopy) {
  // Large payloads decoded out of a batch are views of the batch buffer,
  // not copies — the pointer identity is the zero-copy receive path.
  DataFrame big;
  big.payload = Bytes(4096, Byte{0x5A});
  const Buf batch = BatchOf({Encode(big), Encode(StartThreadFrame{1})});
  std::vector<Buf> inner;
  std::string error;
  ASSERT_TRUE(TryDecodeBatch(batch, &inner, &error)) << error;
  DataFrame out;
  ASSERT_TRUE(TryDecode(inner[0], &out, &error)) << error;
  EXPECT_EQ(out.payload.size(), 4096u);
  EXPECT_GE(out.payload.data(), batch.data());
  EXPECT_LT(out.payload.data(), batch.data() + batch.size());
}

TEST(NetioFrameBatch, TruncatedInnerFrameIsRejected) {
  Bytes wire = BatchOf({Encode(StartThreadFrame{1}),
                        Encode(StartThreadFrame{2})});
  for (std::size_t cut = 1; cut < 12; ++cut) {
    const Buf cut_frame = Buf::Copy(ByteSpan(wire.data(), wire.size() - cut));
    std::vector<Buf> inner;
    std::string error;
    EXPECT_FALSE(TryDecodeBatch(cut_frame, &inner, &error)) << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameBatch, HostileCountIsRejectedBeforeAllocation) {
  // count = 2^32-1 with a handful of actual bytes: the per-entry minimum
  // bound must reject it before any reserve.
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
  w.u32(0xFFFFFFFFu);
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(FrameType::kShutdownDone));
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(w.take()), &inner, &error));
  EXPECT_NE(error.find("batch count"), std::string::npos);
}

TEST(NetioFrameBatch, DegenerateCountsAreRejected) {
  // The writer never coalesces fewer than two frames, so 0 and 1 are
  // protocol violations, not valid encodings.
  for (const std::uint32_t count : {0u, 1u}) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
    w.u32(count);
    const Bytes done = Encode(ShutdownDoneFrame{});
    for (std::uint32_t i = 0; i < count; ++i) w.bytes(done);
    std::vector<Buf> inner;
    std::string error;
    EXPECT_FALSE(TryDecodeBatch(Buf(w.take()), &inner, &error))
        << "count " << count;
  }
}

TEST(NetioFrameBatch, TrailingGarbageIsRejected) {
  Bytes wire = BatchOf({Encode(StartThreadFrame{1}),
                        Encode(StartThreadFrame{2})});
  wire.push_back(0xAB);
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(std::move(wire)), &inner, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameBatch, NestedBatchIsRejected) {
  const Bytes inner_batch =
      BatchOf({Encode(StartThreadFrame{1}), Encode(StartThreadFrame{2})});
  const Bytes wire = BatchOf({inner_batch, Encode(ShutdownDoneFrame{})});
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(Bytes(wire)), &inner, &error));
  EXPECT_NE(error.find("nested"), std::string::npos);
}

TEST(NetioFrameBatch, InnerFrameWithNoValidTypeIsRejected) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kBatch));
  w.u32(2);
  w.u32(0);  // zero-length inner frame: no type byte at all
  w.bytes(Encode(StartThreadFrame{1}));  // big enough to pass count bound
  std::vector<Buf> inner;
  std::string error;
  EXPECT_FALSE(TryDecodeBatch(Buf(w.take()), &inner, &error));
  EXPECT_NE(error.find("type"), std::string::npos);
}

TEST(NetioFrameBatch, WireImageDecodesToTheQueuedFrames) {
  // The scatter image the reactor writes, read back the way the far end
  // reads it: one record, assembled, then split by TryDecodeBatch.
  DataFrame big;
  big.payload = Bytes(300, Byte{0x42});
  const std::vector<Bytes> frames = {Encode(StartThreadFrame{1}), Encode(big),
                                     Encode(HeartbeatFrame{2, 3})};
  const Bytes image = WireImage(frames);
  BufferPool pool;
  RecordAssembler rx(&pool);
  std::vector<Buf> records;
  std::string error;
  ASSERT_TRUE(Feed(rx, ByteSpan(image), 0, &records, &error)) << error;
  ASSERT_EQ(records.size(), 1u);
  FrameType type;
  ASSERT_TRUE(PeekType(records[0].span(), &type));
  EXPECT_EQ(type, FrameType::kBatch);
  std::vector<Buf> inner;
  ASSERT_TRUE(TryDecodeBatch(records[0], &inner, &error)) << error;
  ASSERT_EQ(inner.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i)
    EXPECT_EQ(inner[i], frames[i]) << "frame " << i;
}

TEST(NetioFrameBatch, LoneFrameWireImageIsAPlainRecord) {
  const Bytes frame = Encode(StartThreadFrame{9});
  const Bytes image = WireImage({frame});
  ASSERT_EQ(image.size(), kRecordHeaderBytes + frame.size());
  const auto header = RecordHeader(frame.size());
  EXPECT_TRUE(std::equal(header.begin(), header.end(), image.begin()));
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(),
                         image.begin() + kRecordHeaderBytes));
}

// ---------------------------------------------------------------------------
// The record assembler (every netio stream reader)
// ---------------------------------------------------------------------------

/// `frames` as back-to-back records, the way a stream carries them.
Bytes Records(const std::vector<Bytes>& frames) {
  Bytes out;
  for (const Bytes& f : frames) {
    const auto header = RecordHeader(f.size());
    out.insert(out.end(), header.begin(), header.end());
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

TEST(NetioRecordAssembler, FrameDeliveredOneByteAtATime) {
  DataFrame data;
  data.payload = Bytes(200, Byte{7});
  const Bytes frame = Encode(data);
  const Bytes stream = Records({frame});
  BufferPool pool;
  RecordAssembler rx(&pool);
  EXPECT_TRUE(rx.idle());
  std::vector<Buf> frames;
  std::string error;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(Feed(rx, ByteSpan(stream).subspan(i, 1), 1, &frames, &error))
        << error;
    const bool done = i + 1 == stream.size();
    EXPECT_EQ(rx.in_header(), i + 1 < kRecordHeaderBytes || done)
        << "byte " << i;
    EXPECT_EQ(frames.size(), done ? 1u : 0u) << "byte " << i;
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], frame);
  EXPECT_TRUE(rx.idle());
}

TEST(NetioRecordAssembler, HeaderSplitAtEachOffset) {
  const std::vector<Bytes> sent = {Encode(StartThreadFrame{1}),
                                   Encode(HeartbeatFrame{2, 3})};
  const Bytes stream = Records(sent);
  for (std::size_t split = 0; split < kRecordHeaderBytes; ++split) {
    BufferPool pool;
    RecordAssembler rx(&pool);
    std::vector<Buf> frames;
    std::string error;
    ASSERT_TRUE(Feed(rx, ByteSpan(stream).first(split), 0, &frames, &error));
    EXPECT_EQ(rx.idle(), split == 0) << "split " << split;
    ASSERT_TRUE(
        Feed(rx, ByteSpan(stream).subspan(split), 0, &frames, &error))
        << error;
    ASSERT_EQ(frames.size(), sent.size()) << "split " << split;
    for (std::size_t i = 0; i < sent.size(); ++i)
      EXPECT_EQ(frames[i], sent[i]) << "split " << split << " frame " << i;
  }
}

TEST(NetioRecordAssembler, BadLengthsAreRejectedBeforeAllocation) {
  for (const std::uint32_t len : {0u, kMaxFrameBytes + 1}) {
    BufferPool pool;
    RecordAssembler rx(&pool);
    const auto header = RecordHeader(len);
    std::vector<Buf> frames;
    std::string error;
    EXPECT_FALSE(Feed(rx, ByteSpan(header), 0, &frames, &error)) << len;
    EXPECT_NE(error.find("frame length " + std::to_string(len)),
              std::string::npos)
        << error;
    EXPECT_TRUE(rx.failed());
    EXPECT_TRUE(rx.Window().empty());
    EXPECT_TRUE(frames.empty());
    EXPECT_EQ(pool.buffer_allocs(), 0u) << "length " << len;
  }
}

TEST(NetioRecordAssembler, MaxLengthIsAccepted) {
  BufferPool pool;
  RecordAssembler rx(&pool);
  const auto header = RecordHeader(kMaxFrameBytes);
  std::vector<Buf> frames;
  std::string error;
  ASSERT_TRUE(Feed(rx, ByteSpan(header), 0, &frames, &error)) << error;
  EXPECT_EQ(rx.Window().size(), kMaxFrameBytes);
  EXPECT_FALSE(rx.idle());
  EXPECT_FALSE(rx.in_header());
}

TEST(NetioRecordAssembler, SteadyStreamReusesPooledBuffers) {
  // Frames above the inline size hold a pooled box; once the first is
  // released, every later frame reuses it instead of allocating.
  BufferPool pool;
  RecordAssembler rx(&pool);
  DataFrame data;
  data.payload = Bytes(512, Byte{1});
  const Bytes stream = Records({Encode(data)});
  std::string error;
  for (int i = 0; i < 100; ++i) {
    std::vector<Buf> frames;
    ASSERT_TRUE(Feed(rx, ByteSpan(stream), 0, &frames, &error)) << error;
    ASSERT_EQ(frames.size(), 1u);
  }
  EXPECT_EQ(pool.buffer_allocs(), 1u);
}

TEST(NetioRecordAssembler, SeededMutationsYieldFramesOrACleanError) {
  DataFrame data;
  data.payload = Bytes(100, Byte{3});
  const std::vector<Bytes> sent = {
      Encode(StartThreadFrame{1}), Encode(data), Encode(HeartbeatFrame{2, 3}),
      Encode(ShutdownDoneFrame{}), Encode(RoundFrame{RoundOp::kStats, 4})};
  const Bytes stream = Records(sent);
  constexpr int kMutations = 1000;
  SplitMix64 rng(0xF4A3E5ull);
  for (int i = 0; i < kMutations; ++i) {
    Bytes mutated = stream;
    const std::size_t at = rng.next() % mutated.size();
    mutated[at] ^= static_cast<Byte>(1 + rng.next() % 255);
    const std::size_t chunk = 1 + rng.next() % 16;
    BufferPool pool;
    RecordAssembler rx(&pool);
    std::vector<Buf> frames;
    std::string error;
    bool ok = false;
    EXPECT_NO_THROW(ok = Feed(rx, ByteSpan(mutated), chunk, &frames, &error))
        << "flip at " << at;
    EXPECT_EQ(ok, error.empty()) << "flip at " << at << ": " << error;
    EXPECT_EQ(ok, !rx.failed()) << "flip at " << at;
    std::size_t framed = 0;
    for (const Buf& f : frames) framed += kRecordHeaderBytes + f.size();
    EXPECT_LE(framed, mutated.size()) << "flip at " << at;
    // Bytes before the flipped one frame exactly as they were sent.
    std::size_t offset = 0;
    for (std::size_t k = 0; k < frames.size() && k < sent.size(); ++k) {
      offset += kRecordHeaderBytes + sent[k].size();
      if (offset > at) break;
      EXPECT_EQ(frames[k], sent[k]) << "flip at " << at << " frame " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// v6 heartbeats
// ---------------------------------------------------------------------------

TEST(NetioFrame, HeartbeatRoundTrip) {
  const HeartbeatFrame out = RoundTrip(HeartbeatFrame{42, 123456789});
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.send_ns, 123456789u);
}

TEST(NetioFrame, HeartbeatAckEchoesProbeTimestamp) {
  // The ack carries the prober's own send timestamp back, so RTT is
  // computed against one clock — the ack must preserve both fields bit
  // for bit.
  const HeartbeatAckFrame out =
      RoundTrip(HeartbeatAckFrame{7, 0xFFFFFFFFFFFFFFFFull});
  EXPECT_EQ(out.seq, 7u);
  EXPECT_EQ(out.send_ns, 0xFFFFFFFFFFFFFFFFull);
}

TEST(NetioFrameDefense, HeartbeatTruncationIsAnErrorNotACrash) {
  const Bytes wire = Encode(HeartbeatFrame{9, 987654321});
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    HeartbeatFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

TEST(NetioFrameDefense, HeartbeatTrailingGarbageIsRejected) {
  Bytes wire = Encode(HeartbeatAckFrame{3, 5});
  wire.push_back(0xAB);
  HeartbeatAckFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameDefense, HeartbeatWrongTypeIsRejected) {
  // A heartbeat must never decode as an ack (and vice versa): the prober
  // matches acks by sequence and a confused type would corrupt RTTs.
  const Bytes hb = Encode(HeartbeatFrame{1, 2});
  HeartbeatAckFrame ack;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(hb), &ack, &error));
  const Bytes wire = Encode(HeartbeatAckFrame{1, 2});
  HeartbeatFrame probe;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &probe, &error));
}

TEST(NetioFrame, PeekTypeSeesHeartbeats) {
  FrameType type;
  ASSERT_TRUE(PeekType(ByteSpan(Encode(HeartbeatFrame{1, 2})), &type));
  EXPECT_EQ(type, FrameType::kHeartbeat);
  ASSERT_TRUE(PeekType(ByteSpan(Encode(HeartbeatAckFrame{1, 2})), &type));
  EXPECT_EQ(type, FrameType::kHeartbeatAck);
}

// ---------------------------------------------------------------------------
// Wire delta frames + the shm handshake fields
// ---------------------------------------------------------------------------

TEST(NetioFrame, HelloRoundTripCarriesV7Negotiation) {
  HelloFrame in;
  in.node = 4;
  in.node_count = 8;
  in.ranks_per_proc = 2;
  in.host_id = 0xDEADBEEFCAFEF00Dull;
  in.shm_name = "/hmdsm-1234-2-abc";
  const HelloFrame out = RoundTrip(in);
  EXPECT_EQ(out.host_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(out.shm_name, "/hmdsm-1234-2-abc");
}

TEST(NetioFrame, HelloAckRoundTripCarriesV7Negotiation) {
  HelloAckFrame in;
  in.node = 0;
  in.host_id = 7;
  in.shm_name = "/hmdsm-99-0-1";
  const HelloAckFrame out = RoundTrip(in);
  EXPECT_EQ(out.host_id, 7u);
  EXPECT_EQ(out.shm_name, "/hmdsm-99-0-1");
}

TEST(NetioFrame, PeekVersionReadsOnlyTheVersionWord) {
  std::uint32_t version = 0;
  const Bytes hello = Encode(HelloFrame{});
  ASSERT_TRUE(PeekVersion(ByteSpan(hello), FrameType::kHello, &version));
  EXPECT_EQ(version, kProtocolVersion);
  // Whatever follows the version word is not looked at.
  const Bytes head(hello.begin(), hello.begin() + 5);
  ASSERT_TRUE(PeekVersion(ByteSpan(head), FrameType::kHello, &version));
  EXPECT_EQ(version, kProtocolVersion);
  EXPECT_FALSE(PeekVersion(ByteSpan(head.data(), 4), FrameType::kHello,
                           &version));
  EXPECT_FALSE(PeekVersion(ByteSpan(hello), FrameType::kHelloAck, &version));
}

DeltaFrame MakeDelta(const Bytes& base, const Bytes& next) {
  DeltaFrame f;
  f.src = 1;
  f.dst = 6;
  f.cat = stats::MsgCat::kObj;
  f.obj = 0x1122334455667788ull;
  f.base_seq = 3;
  f.diff = Bytes(dsm::Diff::Encode(ByteSpan(base), ByteSpan(next)));
  return f;
}

TEST(NetioFrame, DeltaRoundTripRebuildsThePayload) {
  Bytes base(128, Byte{0x40});
  Bytes next = base;
  next[7] = Byte{0x41};
  next[100] = Byte{0x42};
  const DeltaFrame out = RoundTrip(MakeDelta(base, next));
  EXPECT_EQ(out.src, 1u);
  EXPECT_EQ(out.dst, 6u);
  EXPECT_EQ(out.obj, 0x1122334455667788ull);
  EXPECT_EQ(out.base_seq, 3u);
  Bytes rebuilt;
  std::string error;
  ASSERT_TRUE(dsm::Diff::TryApply(out.diff.span(), ByteSpan(base), &rebuilt,
                                  &error))
      << error;
  EXPECT_EQ(rebuilt, next);
}

TEST(NetioFrame, FrameOverheadsMatchTheEncoders) {
  // The sender's delta-or-full decision compares encoded sizes through
  // these constants instead of encoding both frames.
  Bytes base(128, Byte{0x40});
  Bytes next = base;
  next[9] = Byte{0x41};
  DataFrame data;
  data.payload = Buf::Copy(ByteSpan(next));
  EXPECT_EQ(Encode(data).size(), next.size() + kDataFrameOverhead);
  const DeltaFrame delta = MakeDelta(base, next);
  EXPECT_EQ(Encode(delta).size(), delta.diff.size() + kDeltaFrameOverhead);
}

TEST(NetioFrame, DeltaBufDecodeAliasesTheWireFrame) {
  // The diff must exceed Buf::kInlineCapacity, or the decoded view is
  // (correctly) re-inlined instead of aliasing the frame buffer.
  Bytes base(512, Byte{1});
  Bytes next = base;
  for (std::size_t i = 100; i < 300; ++i) next[i] = Byte{2};
  const Buf wire = Bytes(Encode(MakeDelta(base, next)));
  DeltaFrame out;
  std::string error;
  ASSERT_TRUE(TryDecode(wire, &out, &error)) << error;
  EXPECT_GE(out.diff.data(), wire.data());
  EXPECT_LT(out.diff.data(), wire.data() + wire.size());
}

TEST(NetioFrameDefense, DeltaTruncationIsAnErrorNotACrash) {
  Bytes base(64, Byte{5});
  Bytes next = base;
  next[10] = Byte{6};
  const Bytes wire = Encode(MakeDelta(base, next));
  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    DeltaFrame out;
    std::string error;
    EXPECT_FALSE(
        TryDecode(ByteSpan(wire.data(), wire.size() - cut), &out, &error))
        << "cut " << cut;
    EXPECT_FALSE(error.empty());
  }
}

/// Hand-builds a delta frame around a raw diff blob, bypassing the diff
/// encoder so hostile run structures reach the decoder.
Bytes RawDeltaFrame(const Bytes& diff) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(FrameType::kDelta));
  w.u32(1);  // src
  w.u32(0);  // dst
  w.u8(0);   // cat
  w.u64(42);
  w.u32(0);  // base_seq
  w.bytes(diff);
  return w.take();
}

TEST(NetioFrameDefense, DeltaHostileRunCountIsRejectedBeforeLooping) {
  // run_count = 2^32-1 backed by 4 real bytes: the per-run minimum bound
  // must reject it before the decoder walks phantom runs.
  Writer d;
  d.u32(64);           // object size
  d.u32(0xFFFFFFFFu);  // hostile run count
  d.u32(0);            // a lone partial run header
  DeltaFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(RawDeltaFrame(d.take())), &out, &error));
  EXPECT_NE(error.find("run count"), std::string::npos);
}

TEST(NetioFrameDefense, DeltaOutOfOrderRunsAreRejected) {
  Writer d;
  d.u32(64);  // object size
  d.u32(2);   // two runs, second starting before the first ended
  d.u32(10);
  d.u32(4);
  d.raw(Bytes(4, Byte{1}));  // raw: diff runs carry no length prefix
  d.u32(8);  // overlaps [10,14)
  d.u32(4);
  d.raw(Bytes(4, Byte{2}));
  DeltaFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(RawDeltaFrame(d.take())), &out, &error));
  EXPECT_NE(error.find("order"), std::string::npos);
}

TEST(NetioFrameDefense, DeltaRunPastObjectBoundsIsRejected) {
  Writer d;
  d.u32(16);  // object size
  d.u32(1);
  d.u32(12);  // offset 12 + length 8 = 20 > 16
  d.u32(8);
  d.raw(Bytes(8, Byte{3}));
  DeltaFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(RawDeltaFrame(d.take())), &out, &error));
  EXPECT_NE(error.find("bounds"), std::string::npos);
}

TEST(NetioFrameDefense, DeltaTrailingGarbageAfterRunsIsRejected) {
  Bytes base(32, Byte{0});
  Bytes next = base;
  next[1] = Byte{1};
  Bytes diff = dsm::Diff::Encode(ByteSpan(base), ByteSpan(next));
  diff.push_back(0xAB);
  DeltaFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(RawDeltaFrame(diff)), &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
}

TEST(NetioFrameDefense, DeltaOutOfRangeCategoryIsRejected) {
  Bytes base(8, Byte{0});
  Bytes next = base;
  next[0] = Byte{1};
  Bytes wire = Encode(MakeDelta(base, next));
  wire[9] = 0xFF;  // the cat byte (type + src + dst precede it)
  DeltaFrame out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(wire), &out, &error));
  EXPECT_NE(error.find("category"), std::string::npos);
}

TEST(NetioFrameDefense, DeltaAppliedToAStaleBaseFails) {
  // A structurally valid diff applied against the wrong base size must be
  // a clean failure in Diff::TryApply — this is the receiver's last line
  // of defense if its cache ever held a different version than the sender
  // diffed against.
  Bytes base(64, Byte{9});
  Bytes next = base;
  next[63] = Byte{10};
  const DeltaFrame out = RoundTrip(MakeDelta(base, next));
  const Bytes stale(32, Byte{9});  // wrong object size
  Bytes rebuilt;
  std::string error;
  EXPECT_FALSE(dsm::Diff::TryApply(out.diff.span(), ByteSpan(stale),
                                   &rebuilt, &error));
  EXPECT_FALSE(error.empty());
}

TEST(NetioFrame, PeekTypeSeesDeltas) {
  Bytes base(8, Byte{0});
  Bytes next = base;
  next[2] = Byte{1};
  FrameType type;
  ASSERT_TRUE(PeekType(ByteSpan(Encode(MakeDelta(base, next))), &type));
  EXPECT_EQ(type, FrameType::kDelta);
}

// ---------------------------------------------------------------------------
// Seeded mutation: every truncation of a valid frame plus kFlips seeded
// single-byte flips must decode or come back false with a diagnostic —
// never an exception past the decoder. Deterministic (fixed seed), so a
// failure reproduces exactly.
// ---------------------------------------------------------------------------

TEST(NetioFrameDefense, SeededMutationsDecodeOrFailCleanly) {
  using Decoder = std::function<bool(const Bytes&, std::string*)>;
  struct Case {
    const char* name;
    Bytes valid;
    Decoder decode;
  };
  Bytes base(48, Byte{5});
  Bytes next = base;
  next[3] = Byte{9};
  next[40] = Byte{1};
  HelloFrame hello;
  hello.node = 2;
  hello.node_count = 4;
  hello.ranks_per_proc = 2;
  hello.host_id = 0x1234;
  hello.shm_name = "/hmdsm-1-2-3";
  HelloAckFrame ack;
  ack.host_id = 0x1234;
  ack.shm_name = "/hmdsm-4-5-6";
  DataFrame data;
  data.payload = Bytes(12, Byte{7});
  RoundReplyFrame stats_reply = Reply(RoundOp::kStats, 11, {5, 4, 3, 2});
  stats_reply.now_ns = 987654321;
  stats::Recorder& rec = stats_reply.recorder;
  rec.SetNodeCount(3);
  rec.RecordRtt(stats::MsgCat::kObj, 1500);
  rec.RecordLatency(stats::Lat::kMailboxDwell, 250);
  stats::Decision decision;
  decision.obj = 42;
  decision.migrate = true;
  decision.destination = 2;
  rec.RecordDecision(decision);
  for (int i = 0; i < 3; ++i) {  // the first call only primes the cursor
    rec.RecordMessage(stats::MsgCat::kObj, 64);
    rec.SampleTimeseries(1, 1000 * (i + 1));
  }
  ASSERT_EQ(rec.Ledger().size(), 1u);
  ASSERT_EQ(rec.Series().size(), 2u);
  ThreadDoneFrame done;
  done.seq = 6;
  done.error = "boom";
  done.result = Bytes{1, 2, 3};
  const std::vector<Case> cases = {
      {"hello", Encode(hello),
       [](const Bytes& b, std::string* e) {
         HelloFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"hello_ack", Encode(ack),
       [](const Bytes& b, std::string* e) {
         HelloAckFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"delta", Encode(MakeDelta(base, next)),
       [](const Bytes& b, std::string* e) {
         DeltaFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"delta_buf", Encode(MakeDelta(base, next)),
       [](const Bytes& b, std::string* e) {
         DeltaFrame f;
         return TryDecode(Buf(Bytes(b)), &f, e);
       }},
      {"round", Encode(RoundFrame{RoundOp::kShutdown, 8, true}),
       [](const Bytes& b, std::string* e) {
         RoundFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"round_reply_quiesce",
       Encode(Reply(RoundOp::kQuiesce, 9, {1, 2, 3, 4})),
       [](const Bytes& b, std::string* e) {
         RoundReplyFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"round_reply_stats", Encode(stats_reply),
       [](const Bytes& b, std::string* e) {
         RoundReplyFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"start_thread", Encode(StartThreadFrame{3}),
       [](const Bytes& b, std::string* e) {
         StartThreadFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"thread_done", Encode(done),
       [](const Bytes& b, std::string* e) {
         ThreadDoneFrame f;
         return TryDecode(ByteSpan(b), &f, e);
       }},
      {"batch",
       BatchOf({Encode(data), Encode(MakeDelta(base, next)),
                Encode(HeartbeatFrame{1, 2})}),
       [](const Bytes& b, std::string* e) {
         std::vector<Buf> inner;
         return TryDecodeBatch(Buf(Bytes(b)), &inner, e);
       }},
  };
  constexpr int kFlips = 2000;
  SplitMix64 rng(0x5EEDF00Dull);
  for (const Case& c : cases) {
    std::string error;
    ASSERT_TRUE(c.decode(c.valid, &error)) << c.name << ": " << error;
    for (std::size_t len = 0; len < c.valid.size(); ++len) {
      const Bytes cut(c.valid.begin(), c.valid.begin() + len);
      bool ok = true;
      error.clear();
      EXPECT_NO_THROW(ok = c.decode(cut, &error)) << c.name << " len " << len;
      EXPECT_FALSE(ok) << c.name << " accepted a " << len << "-byte prefix";
      EXPECT_FALSE(error.empty()) << c.name << " len " << len;
    }
    for (int i = 0; i < kFlips; ++i) {
      Bytes flipped = c.valid;
      const std::size_t at = rng.next() % flipped.size();
      flipped[at] ^= static_cast<Byte>(1 + rng.next() % 255);
      bool ok = false;
      error.clear();
      EXPECT_NO_THROW(ok = c.decode(flipped, &error))
          << c.name << " flip at " << at;
      if (!ok) {
        EXPECT_FALSE(error.empty()) << c.name << " flip at " << at;
      }
    }
  }
}

}  // namespace
}  // namespace hmdsm::netio
