// The threads backend's plumbing: Channel, ChannelTransport, and the
// Runtime/Guest execution layer on real std::threads.
#include "src/runtime/channel.h"
#include "src/runtime/runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/serde.h"

namespace hmdsm::runtime {
namespace {

using stats::MsgCat;

Bytes Tag(std::uint64_t v) {
  Writer w;
  w.u64(v);
  return w.take();
}

std::uint64_t UnTag(ByteSpan b) {
  Reader r(b);
  return r.u64();
}

// ---------------------------------------------------------------------------
// Channel
// ---------------------------------------------------------------------------

TEST(Channel, DeliversInPushOrder) {
  Channel ch;
  ch.Push(net::Packet{0, 1, MsgCat::kObj, Tag(1)});
  ch.Push(net::Packet{0, 1, MsgCat::kObj, Tag(2)});
  net::Packet p;
  ASSERT_TRUE(ch.WaitPop(p));
  EXPECT_EQ(UnTag(p.payload), 1u);
  ASSERT_TRUE(ch.WaitPop(p));
  EXPECT_EQ(UnTag(p.payload), 2u);
}

TEST(Channel, CloseWakesBlockedConsumer) {
  Channel ch;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    net::Packet p;
    EXPECT_FALSE(ch.WaitPop(p));
    returned = true;
  });
  ch.Close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(Channel, BlockedConsumerGetsThePushedPacket) {
  Channel ch;
  net::Packet got;
  std::thread consumer([&] { ASSERT_TRUE(ch.WaitPop(got)); });
  ch.Push(net::Packet{2, 0, MsgCat::kDiff, Tag(42)});
  consumer.join();
  EXPECT_EQ(got.src, 2u);
  EXPECT_EQ(UnTag(got.payload), 42u);
}

// ---------------------------------------------------------------------------
// ChannelTransport
// ---------------------------------------------------------------------------

TEST(ChannelTransport, DispatchRunsHandlerAndAccounts) {
  ChannelTransport t(2);
  std::uint64_t got = 0;
  t.SetHandler(1, [&](net::Packet&& p) { got = UnTag(p.payload); });
  t.Send(0, 1, MsgCat::kObj, Tag(7));
  EXPECT_EQ(t.enqueued(), 1u);
  EXPECT_EQ(t.dispatched(), 0u);
  net::Packet p;
  ASSERT_TRUE(t.WaitPop(1, p));
  t.Dispatch(std::move(p));
  EXPECT_EQ(got, 7u);
  EXPECT_EQ(t.dispatched(), 1u);
  // Send half charged to node 0, receive half to node 1.
  EXPECT_EQ(t.RecorderFor(0).Cat(MsgCat::kObj).messages, 1u);
  EXPECT_EQ(t.RecorderFor(0).SentBy(0).bytes,
            8u + net::Transport::kHeaderBytes);
  EXPECT_EQ(t.RecorderFor(1).ReceivedBy(1).messages, 1u);
  EXPECT_EQ(t.Totals().TotalMessages(true), 1u);
}

TEST(ChannelTransport, SelfSendGoesThroughMailboxButIsNotCharged) {
  ChannelTransport t(1);
  bool handled = false;
  t.SetHandler(0, [&](net::Packet&&) { handled = true; });
  t.Send(0, 0, MsgCat::kDiff, Tag(1));
  EXPECT_FALSE(handled);  // asynchronous: waits for the dispatcher
  net::Packet p;
  ASSERT_TRUE(t.WaitPop(0, p));
  t.Dispatch(std::move(p));
  EXPECT_TRUE(handled);
  EXPECT_EQ(t.Totals().TotalMessages(true), 0u);
  EXPECT_EQ(t.packets_sent(), 0u);
  EXPECT_EQ(t.enqueued(), 1u);  // still counted for quiescence
  EXPECT_EQ(t.dispatched(), 1u);
}

TEST(ChannelTransport, BroadcastReachesAllButSender) {
  ChannelTransport t(4);
  t.Broadcast(2, MsgCat::kNotify, Tag(9));
  for (net::NodeId n = 0; n < 4; ++n) {
    net::Packet p;
    if (n == 2) continue;
    ASSERT_TRUE(t.WaitPop(n, p));
    EXPECT_EQ(p.src, 2u);
    EXPECT_EQ(UnTag(p.payload), 9u);
  }
  EXPECT_EQ(t.Totals().Cat(MsgCat::kNotify).messages, 3u);
}

TEST(ChannelTransport, PerSenderFifoUnderConcurrency) {
  // Two producer threads blast tagged sequences at one consumer node; the
  // consumer must see each producer's tags in order (per-sender FIFO), in
  // whatever global interleaving.
  constexpr int kPerSender = 2000;
  ChannelTransport t(3);
  std::vector<std::uint64_t> seen_from[2];
  t.SetHandler(2, [&](net::Packet&& p) {
    seen_from[p.src].push_back(UnTag(p.payload));
  });
  auto producer = [&](net::NodeId src) {
    for (int i = 0; i < kPerSender; ++i)
      t.Send(src, 2, MsgCat::kObj, Tag(i));
  };
  std::thread consumer([&] {
    net::Packet p;
    for (int i = 0; i < 2 * kPerSender; ++i) {
      ASSERT_TRUE(t.WaitPop(2, p));
      t.Dispatch(std::move(p));
    }
  });
  std::thread p0(producer, 0), p1(producer, 1);
  p0.join();
  p1.join();
  consumer.join();
  ASSERT_EQ(seen_from[0].size(), static_cast<std::size_t>(kPerSender));
  ASSERT_EQ(seen_from[1].size(), static_cast<std::size_t>(kPerSender));
  for (int i = 0; i < kPerSender; ++i) {
    EXPECT_EQ(seen_from[0][i], static_cast<std::uint64_t>(i));
    EXPECT_EQ(seen_from[1][i], static_cast<std::uint64_t>(i));
  }
}

// ---------------------------------------------------------------------------
// Runtime + Guest: the DSM protocol on real threads
// ---------------------------------------------------------------------------

RuntimeOptions Opts(std::size_t nodes, const std::string& policy = "AT") {
  RuntimeOptions o;
  o.nodes = nodes;
  o.dsm.policy = policy;
  return o;
}

TEST(Runtime, RemoteCreateFaultInAndDiffRoundTrip) {
  Runtime rt(Opts(3));
  const dsm::ObjectId obj = rt.NewObjectId(/*initial_home=*/1, 0);
  const dsm::LockId lock = rt.NewLockId(0);

  Guest main(rt, 0);
  main.CreateObject(obj, Tag(5));  // ships to node 1, waits for the ack
  rt.AwaitQuiescence();
  EXPECT_GE(rt.transport().dispatched(), 2u);  // init + ack handled
  EXPECT_EQ(rt.transport().enqueued(), rt.transport().dispatched());

  // A worker on node 2 increments the value under the lock.
  std::thread worker([&] {
    Guest g(rt, 2);
    g.Acquire(lock);
    std::uint64_t v = 0;
    g.Read(obj, [&](ByteSpan b) { v = UnTag(b); });
    g.Write(obj, [&](MutByteSpan b) {
      Writer w;
      w.u64(v + 1);
      const Bytes enc = w.take();
      std::copy(enc.begin(), enc.end(), b.begin());
    });
    g.Release(lock);
  });
  worker.join();

  // Acquiring the same lock afterwards gives release-consistent data.
  main.Acquire(lock);
  std::uint64_t seen = 0;
  main.Read(obj, [&](ByteSpan b) { seen = UnTag(b); });
  main.Release(lock);
  EXPECT_EQ(seen, 6u);

  rt.AwaitQuiescence();
  const stats::Recorder totals = rt.Totals();
  EXPECT_GE(totals.Count(stats::Ev::kFaultIns), 2u);
  EXPECT_GE(totals.Count(stats::Ev::kDiffsApplied), 1u);
  rt.Shutdown();
}

TEST(Runtime, BarrierSynchronizesGuestsAcrossNodes) {
  constexpr std::uint32_t kN = 4;
  Runtime rt(Opts(kN));
  const dsm::BarrierId barrier = rt.NewBarrierId(0);
  std::atomic<int> arrived{0};
  std::vector<int> after_counts(kN, -1);
  std::vector<std::thread> threads;
  for (std::uint32_t n = 0; n < kN; ++n) {
    threads.emplace_back([&, n] {
      Guest g(rt, n);
      arrived.fetch_add(1);
      g.Barrier(barrier, kN);
      // Everyone must have arrived before anyone proceeds.
      after_counts[n] = arrived.load();
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t n = 0; n < kN; ++n) EXPECT_EQ(after_counts[n], 4);
  rt.Shutdown();
}

TEST(Runtime, MigrationUnderContention) {
  // MH migrates on every remote request; many writers hammering one object
  // from different nodes exercises redirects racing migrations on real
  // threads. The final value must reflect every locked increment.
  constexpr std::uint32_t kN = 4;
  constexpr int kPerWorker = 25;
  Runtime rt(Opts(kN, "MH"));
  const dsm::ObjectId obj = rt.NewObjectId(0, 0);
  const dsm::LockId lock = rt.NewLockId(0);
  {
    Guest main(rt, 0);
    main.CreateObject(obj, Tag(0));
  }
  std::vector<std::thread> threads;
  for (std::uint32_t n = 0; n < kN; ++n) {
    threads.emplace_back([&, n] {
      Guest g(rt, n);
      for (int i = 0; i < kPerWorker; ++i) {
        g.Acquire(lock);
        std::uint64_t v = 0;
        g.Read(obj, [&](ByteSpan b) { v = UnTag(b); });
        g.Write(obj, [&](MutByteSpan b) {
          Writer w;
          w.u64(v + 1);
          const Bytes enc = w.take();
          std::copy(enc.begin(), enc.end(), b.begin());
        });
        g.Release(lock);
      }
    });
  }
  for (auto& t : threads) t.join();

  Guest main(rt, 0);
  main.Acquire(lock);
  std::uint64_t final_value = 0;
  main.Read(obj, [&](ByteSpan b) { final_value = UnTag(b); });
  main.Release(lock);
  EXPECT_EQ(final_value, static_cast<std::uint64_t>(kN * kPerWorker));

  rt.AwaitQuiescence();
  EXPECT_GE(rt.Totals().Count(stats::Ev::kMigrations), 1u);
  rt.Shutdown();
}

TEST(Runtime, ResetMeasurementZeroesTheWindow) {
  Runtime rt(Opts(2));
  const dsm::ObjectId obj = rt.NewObjectId(1, 0);
  Guest main(rt, 0);
  main.CreateObject(obj, Tag(1));
  rt.ResetMeasurement();
  EXPECT_EQ(rt.Totals().TotalMessages(true), 0u);  // setup traffic excluded
  std::uint64_t v = 0;
  main.Read(obj, [&](ByteSpan b) { v = UnTag(b); });
  EXPECT_EQ(v, 1u);
  rt.AwaitQuiescence();
  EXPECT_GE(rt.Totals().Cat(stats::MsgCat::kObj).messages, 2u);
  EXPECT_GE(rt.ElapsedSeconds(), 0.0);
  rt.Shutdown();
}

/// A transport hosting nodes 1 and 2 of a 3-node cluster, whose sends
/// stay in its own mailboxes; it exposes the agent locks lent to it.
class PartialTransport final : public MailboxTransport {
 public:
  PartialTransport() : MailboxTransport(3, 1, 2) {}
  using MailboxTransport::lent_agent_lock;
  void Send(net::NodeId src, net::NodeId dst, stats::MsgCat cat,
            Buf payload) override {
    Deliver(net::Packet{src, dst, cat, std::move(payload)},
            /*may_inline=*/false);
  }
};

// The Runtime lends each hosted node's agent lock to its transport for the
// run and withdraws every one in Shutdown, so no transport thread can
// start a handler after it.
TEST(Runtime, LendsAgentLocksUntilShutdown) {
  PartialTransport transport;
  RuntimeOptions ro;
  ro.nodes = 3;
  Runtime rt(ro, transport);
  EXPECT_FALSE(rt.hosts(0));
  ASSERT_NE(transport.lent_agent_lock(1), nullptr);
  ASSERT_NE(transport.lent_agent_lock(2), nullptr);
  EXPECT_EQ(transport.lent_agent_lock(0), nullptr);  // hosted elsewhere
  EXPECT_NE(transport.lent_agent_lock(1), transport.lent_agent_lock(2));
  rt.Shutdown();
  EXPECT_EQ(transport.lent_agent_lock(1), nullptr);
  EXPECT_EQ(transport.lent_agent_lock(2), nullptr);
}

TEST(Runtime, WallClockAdvances) {
  ChannelTransport t(1);
  const sim::Time a = t.Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const sim::Time b = t.Now();
  EXPECT_GE(b - a, 1'000'000);  // at least 1ms of wall time
}

}  // namespace
}  // namespace hmdsm::runtime
