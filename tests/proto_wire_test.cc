#include "src/proto/wire.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/util/rng.h"

namespace hmdsm::proto {
namespace {

template <typename T>
T RoundTrip(const T& msg) {
  Bytes wire = Encode(msg);
  AnyMsg any = Decode(wire);
  EXPECT_TRUE(std::holds_alternative<T>(any));
  return std::get<T>(any);
}

TEST(Wire, ObjRequest) {
  ObjRequest m{ObjectId::Make(3, 1, 42), 7, true};
  auto d = RoundTrip(m);
  EXPECT_EQ(d.obj, m.obj);
  EXPECT_EQ(d.hops, 7u);
  EXPECT_TRUE(d.for_write);
}

TEST(Wire, ObjReplyCarriesData) {
  ObjReply m{ObjectId::Make(0, 0, 1), Bytes{1, 2, 3, 4}};
  auto d = RoundTrip(m);
  EXPECT_EQ(d.data, m.data);
  // Wire size reflects the payload (drives the Hockney model).
  EXPECT_GE(Encode(m).size(), m.data.size());
}

TEST(Wire, MigrateReplyCarriesPolicyState) {
  core::ObjPolicyState pol;
  pol.frozen_threshold = 3.5;
  pol.consecutive_remote_writes = 9;
  pol.consecutive_writer = 4;
  pol.redirected_requests = 11;
  pol.exclusive_home_writes = 6;
  pol.epoch = 2;
  pol.home_written_since_remote = true;
  pol.avg_diff_bytes = 123.25;
  pol.diff_samples = 8;

  MigrateReply m{ObjectId::Make(1, 1, 5), Bytes{9, 9}, pol};
  auto d = RoundTrip(m);
  EXPECT_EQ(d.policy_state.frozen_threshold, 3.5);
  EXPECT_EQ(d.policy_state.consecutive_remote_writes, 9u);
  EXPECT_EQ(d.policy_state.consecutive_writer, 4u);
  EXPECT_EQ(d.policy_state.redirected_requests, 11u);
  EXPECT_EQ(d.policy_state.exclusive_home_writes, 6u);
  EXPECT_EQ(d.policy_state.epoch, 2u);
  EXPECT_TRUE(d.policy_state.home_written_since_remote);
  EXPECT_EQ(d.policy_state.avg_diff_bytes, 123.25);
  EXPECT_EQ(d.policy_state.diff_samples, 8u);
}

TEST(Wire, Redirect) {
  Redirect m{ObjectId::Make(2, 0, 3), 5, true};
  auto d = RoundTrip(m);
  EXPECT_EQ(d.new_home, 5u);
  EXPECT_TRUE(d.ask_manager);
  // A redirect is a near-unit-size message — the α asymmetry depends on it.
  EXPECT_LT(Encode(m).size(), 32u);
}

TEST(Wire, DiffPreservesWriterAndAck) {
  DiffMsg m{ObjectId::Make(0, 2, 9), Bytes{1, 2, 3}, 0xABCDEF, true, 6};
  auto d = RoundTrip(m);
  EXPECT_EQ(d.diff, m.diff);
  EXPECT_EQ(d.ack_tag, 0xABCDEFull);
  EXPECT_TRUE(d.ack_required);
  EXPECT_EQ(d.writer, 6u);
}

TEST(Wire, LockMessages) {
  LockId lock = LockId::Make(2, 77);
  EXPECT_EQ(RoundTrip(LockAcquireMsg{lock, {}}).lock, lock);
  EXPECT_EQ(RoundTrip(LockGrantMsg{lock}).lock, lock);

  LockReleaseMsg rel{lock, {}};
  rel.piggybacked_diffs.emplace_back(ObjectId::Make(0, 0, 1), Bytes{5});
  rel.piggybacked_diffs.emplace_back(ObjectId::Make(1, 1, 2), Bytes{6, 7});
  auto d = RoundTrip(rel);
  ASSERT_EQ(d.piggybacked_diffs.size(), 2u);
  EXPECT_EQ(d.piggybacked_diffs[0].second, Bytes{5});
  EXPECT_EQ(d.piggybacked_diffs[1].first, (ObjectId::Make(1, 1, 2)));
}

TEST(Wire, BarrierMessages) {
  BarrierId b = BarrierId::Make(0, 12);
  BarrierArriveMsg arrive{b, 8, {}};
  auto d = RoundTrip(arrive);
  EXPECT_EQ(d.barrier, b);
  EXPECT_EQ(d.expected, 8u);
  EXPECT_EQ(RoundTrip(BarrierReleaseMsg{b}).barrier, b);
}

TEST(Wire, InitAndManagerAndBroadcast) {
  auto init = RoundTrip(InitObjectMsg{ObjectId::Make(4, 0, 8), Bytes{1}, 3});
  EXPECT_EQ(init.ack_tag, 3u);
  EXPECT_EQ(RoundTrip(InitAckMsg{3}).ack_tag, 3u);
  EXPECT_EQ(RoundTrip(ManagerUpdateMsg{ObjectId::Make(1, 0, 2), 9}).home, 9u);
  EXPECT_EQ(RoundTrip(ManagerLookupMsg{ObjectId::Make(1, 0, 2)}).obj,
            (ObjectId::Make(1, 0, 2)));
  EXPECT_EQ(RoundTrip(ManagerReplyMsg{ObjectId::Make(1, 0, 2), 7}).home, 7u);
  EXPECT_EQ(RoundTrip(HomeBroadcastMsg{ObjectId::Make(1, 0, 2), 6}).home, 6u);
}

TEST(Wire, PeekKindMatchesDecode) {
  EXPECT_EQ(PeekKind(Encode(ObjRequest{})), Kind::kObjRequest);
  EXPECT_EQ(PeekKind(Encode(DiffAck{})), Kind::kDiffAck);
  EXPECT_EQ(PeekKind(Encode(BarrierReleaseMsg{})), Kind::kBarrierRelease);
}

TEST(Wire, GarbageKindThrows) {
  Bytes junk{0xEE, 0, 0};
  EXPECT_THROW(Decode(junk), CheckError);
}

// ---------------------------------------------------------------------------
// Malformed input: wire bytes arriving over a socket are untrusted, so the
// defensive decode path must turn every corruption into an error — never an
// escaped exception, UB, or an attacker-sized allocation.
// ---------------------------------------------------------------------------

TEST(WireMalformed, TryDecodeAcceptsEveryValidMessage) {
  const ObjReply m{ObjectId::Make(1, 0, 9), Bytes{5, 6, 7}, 3};
  const Bytes wire = Encode(m);
  AnyMsg out;
  std::string error;
  ASSERT_TRUE(TryDecode(wire, &out, &error)) << error;
  EXPECT_EQ(std::get<ObjReply>(out).data, m.data);
}

TEST(WireMalformed, EmptyInputIsAnError) {
  AnyMsg out;
  std::string error;
  EXPECT_FALSE(TryDecode(ByteSpan(), &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(WireMalformed, EveryTruncationIsAnError) {
  LockReleaseMsg m;
  m.lock = LockId::Make(2, 7);
  m.piggybacked_diffs.emplace_back(ObjectId::Make(0, 0, 1), Bytes(32, Byte{1}));
  const Bytes wire = Encode(m);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    AnyMsg out;
    std::string error;
    EXPECT_FALSE(TryDecode(ByteSpan(wire.data(), len), &out, &error))
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(WireMalformed, UnknownKindIsAnErrorNotAnException) {
  const Bytes wire{0xEE, 0, 0, 0};
  AnyMsg out;
  std::string error;
  EXPECT_FALSE(TryDecode(wire, &out, &error));
  EXPECT_NE(error.find("unknown message kind"), std::string::npos);
}

TEST(WireMalformed, TrailingGarbageIsRejected) {
  Bytes wire = Encode(DiffAck{42});
  wire.push_back(0x5A);
  AnyMsg out;
  std::string error;
  EXPECT_FALSE(TryDecode(wire, &out, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_THROW(Decode(wire), CheckError);  // the trusted path fails loudly
}

TEST(WireMalformed, HostileDiffListCountIsRejectedBeforeAllocating) {
  // A lock-acquire claiming 2^32-1 piggybacked diffs with no bytes behind
  // the claim: the count/remaining bound must reject it before reserve().
  Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kLockAcquire));
  w.u64(LockId::Make(0, 1).value);
  w.u32(0xFFFFFFFFu);
  const Bytes wire = w.take();
  AnyMsg out;
  std::string error;
  EXPECT_FALSE(TryDecode(wire, &out, &error));
  EXPECT_NE(error.find("diff list count"), std::string::npos);
}

TEST(WireMalformed, HostilePayloadLengthIsRejected) {
  // An object reply whose data-length prefix claims 4 GiB.
  Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kObjReply));
  w.u64(ObjectId::Make(0, 0, 1).value);
  w.u32(0xFFFFFFF0u);
  w.u32(0);  // four bytes where four billion were promised
  const Bytes wire = w.take();
  AnyMsg out;
  std::string error;
  EXPECT_FALSE(TryDecode(wire, &out, &error));
}

// One valid encoding of every message kind, cut at every length and
// flipped at seeded positions: the defensive decoder must either decode
// the result or refuse it with a diagnostic — never throw, never crash.
// Run under ASan+UBSan, this is the decoder's memory-safety check.
TEST(WireMalformed, SeededMutationsOfEveryKindDecodeOrFailCleanly) {
  const ObjectId obj = ObjectId::Make(1, 2, 77);
  const LockId lock = LockId::Make(3, 5);
  const BarrierId barrier = BarrierId::Make(0, 9);
  const std::vector<std::pair<ObjectId, Bytes>> diffs = {
      {obj, Bytes(24, Byte{4})}, {ObjectId::Make(0, 1, 3), Bytes{1, 2}}};
  core::ObjPolicyState pol;
  pol.frozen_threshold = 2.5;
  pol.consecutive_writer = 1;
  pol.epoch = 4;
  const std::vector<Bytes> valid = {
      Encode(ObjRequest{obj, 2, true}),
      Encode(ObjReply{obj, Bytes(40, Byte{7}), 3}),
      Encode(MigrateReply{obj, Bytes(16, Byte{8}), pol}),
      Encode(Redirect{obj, 2, true}),
      Encode(DiffMsg{obj, Bytes(20, Byte{6}), 11, true, 3}),
      Encode(DiffAck{12}),
      Encode(LockAcquireMsg{lock, diffs}),
      Encode(LockGrantMsg{lock}),
      Encode(LockReleaseMsg{lock, diffs}),
      Encode(BarrierArriveMsg{barrier, 4, diffs}),
      Encode(BarrierReleaseMsg{barrier}),
      Encode(InitObjectMsg{obj, Bytes(32, Byte{9}), 13}),
      Encode(InitAckMsg{13}),
      Encode(ManagerUpdateMsg{obj, 2}),
      Encode(ManagerLookupMsg{obj}),
      Encode(ManagerReplyMsg{obj, 1}),
      Encode(HomeBroadcastMsg{obj, 3}),
      Encode(ChainUpdateMsg{obj, 2, 6}),
  };
  std::set<Kind> kinds;
  for (const Bytes& wire : valid) {
    AnyMsg out;
    std::string error;
    ASSERT_TRUE(TryDecode(wire, &out, &error)) << error;
    kinds.insert(PeekKind(wire));
  }
  ASSERT_EQ(kinds.size(), std::variant_size_v<AnyMsg>);

  // Decodes `wire`; a refusal must say why.
  auto check = [](ByteSpan wire, const std::string& what) {
    AnyMsg out;
    std::string error;
    bool ok = false;
    EXPECT_NO_THROW(ok = TryDecode(wire, &out, &error)) << what;
    EXPECT_TRUE(ok || !error.empty()) << what << ": refused silently";
  };
  for (const Bytes& wire : valid) {
    const auto kind = static_cast<int>(PeekKind(wire));
    for (std::size_t len = 0; len < wire.size(); ++len) {
      check(ByteSpan(wire.data(), len), "kind " + std::to_string(kind) +
                                            " cut to " + std::to_string(len));
    }
  }
  constexpr int kMutations = 4000;
  SplitMix64 rng(0x5EED0F1A7ull);
  for (int i = 0; i < kMutations; ++i) {
    Bytes wire = valid[rng.next() % valid.size()];
    const int flips = 1 + static_cast<int>(rng.next() % 3);
    for (int f = 0; f < flips; ++f)
      wire[rng.next() % wire.size()] ^= static_cast<Byte>(1 + rng.next() % 255);
    check(wire, "mutation " + std::to_string(i));
  }
}

TEST(Ids, ObjectIdFieldPacking) {
  ObjectId id = ObjectId::Make(0xABC, 0x123, 0xDEADBEEF);
  EXPECT_EQ(id.initial_home(), 0xABCu);
  EXPECT_EQ(id.creator(), 0x123u);
  EXPECT_EQ(id.seq(), 0xDEADBEEFu);
}

TEST(Ids, LockAndBarrierManagerPacking) {
  EXPECT_EQ(LockId::Make(7, 99).manager(), 7u);
  EXPECT_EQ(BarrierId::Make(3, 1).manager(), 3u);
  EXPECT_THROW(LockId::Make(0x10000, 1), CheckError);
}

}  // namespace
}  // namespace hmdsm::proto
