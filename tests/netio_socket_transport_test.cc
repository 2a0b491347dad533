// SocketTransport at the edges of a run's lifetime: a peer that speaks an
// older protocol version at handshake, a peer that sends a malformed
// control frame or an out-of-bounds record length, and a peer process that
// is gone while the survivor is still shutting down and writing toward it.
#include "src/netio/socket_transport.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/coordinator.h"
#include "src/runtime/runtime.h"
#include "src/util/serde.h"

namespace hmdsm::netio {
namespace {

/// Two pre-bound loopback listeners (one per process of a 2-rank mesh) and
/// the peer list naming them, as the self-fork launcher builds them.
struct TwoRankMesh {
  std::vector<int> listen_fds;
  std::vector<std::string> peers;

  TwoRankMesh() {
    for (int r = 0; r < 2; ++r) {
      std::uint16_t port = 0;
      std::string error;
      Fd fd = ListenOn("127.0.0.1:0", &port, &error);
      HMDSM_CHECK_MSG(fd.valid(), "listen: " << error);
      listen_fds.push_back(fd.release());
      peers.push_back("127.0.0.1:" + std::to_string(port));
    }
  }

  SocketTransportOptions Options(net::NodeId rank) const {
    SocketTransportOptions o;
    o.rank = rank;
    o.peers = peers;
    o.listen_fd = listen_fds[rank];
    o.heartbeat_interval_ms = 0;  // no probe traffic racing the scenario
    // Control frames always ride TCP; without a segment, a rank that
    // _exits leaves nothing behind in /dev/shm.
    o.shm = false;
    return o;
  }
};

// A v7 peer's Hello carries a feature-flags word that v8 dropped, so the
// rest of its layout does not decode as v8. The listener must read the
// version first and refuse the peer by version, not as a malformed frame.
TEST(SocketTransportHandshake, RefusesAnOldProtocolVersionByName) {
  TwoRankMesh mesh;
  ::close(mesh.listen_fds[1]);  // rank 1 is the raw socket below
  SocketTransport rank0(mesh.Options(0));
  rank0.Start();

  std::string error;
  Fd raw = DialWithRetry(mesh.peers[0], 5000, &error);
  ASSERT_TRUE(raw.valid()) << error;
  Writer v7_hello;
  v7_hello.u8(static_cast<std::uint8_t>(FrameType::kHello));
  v7_hello.u32(7);  // version
  v7_hello.u32(1);  // primary rank
  v7_hello.u32(2);  // node_count
  v7_hello.u32(1);  // ranks_per_proc
  v7_hello.u32(3);  // v7 flags: wire delta | shm
  v7_hello.u64(0);  // host_id
  v7_hello.str("");
  const Bytes frame = v7_hello.take();
  ASSERT_TRUE(WriteFrame(raw.get(), ByteSpan(frame), &error)) << error;

  try {
    rank0.AwaitConnected();
    FAIL() << "a v7 peer joined a v8 mesh";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("protocol version 7"), std::string::npos) << what;
    EXPECT_NE(what.find("expected " + std::to_string(kProtocolVersion)),
              std::string::npos)
        << what;
  }
  rank0.Stop();
}

// A control frame the coordinator cannot decode is a protocol violation
// like any other malformed peer frame: the receiver dies naming the
// sender, instead of letting the decode error escape the reactor thread.
TEST(SocketTransportControl, MalformedControlFrameDiesNamingTheSender) {
  EXPECT_DEATH(
      {
        TwoRankMesh mesh;
        runtime::RuntimeOptions ro;
        ro.nodes = 2;
        SocketTransport t0(mesh.Options(0));
        SocketTransport t1(mesh.Options(1));
        runtime::Runtime rt0(ro, t0);
        runtime::Runtime rt1(ro, t1);
        Coordinator c0(t0, rt0, 0);
        Coordinator c1(t1, rt1, 0);
        t0.Start();
        t1.Start();
        t0.AwaitConnected();
        t1.AwaitConnected();
        RoundReplyFrame quiesce;
        quiesce.seq = 1;
        Bytes reply = Encode(quiesce);
        reply.resize(reply.size() - 3);  // cut into the activity counters
        t1.SendControl(0, reply);
        std::this_thread::sleep_for(std::chrono::seconds(10));
      },
      "fatal: malformed control frame from process 1");
}

// The reactor checks every record length before allocating: a peer that
// completed the handshake and then announces an empty frame, or one above
// kMaxFrameBytes, is a protocol violation the receiver dies on, naming the
// sending process.
TEST(SocketTransportReactor, BadRecordLengthDiesNamingTheSender) {
  for (const std::uint32_t len : {0u, kMaxFrameBytes + 1}) {
    EXPECT_DEATH(
        {
          TwoRankMesh mesh;
          ::close(mesh.listen_fds[1]);  // rank 1 is the raw socket below
          SocketTransport rank0(mesh.Options(0));
          rank0.Start();
          std::string error;
          Fd raw = DialWithRetry(mesh.peers[0], 5000, &error);
          HMDSM_CHECK_MSG(raw.valid(), error);
          HelloFrame hello;
          hello.node = 1;
          hello.node_count = 2;
          const Bytes frame = Encode(hello);
          HMDSM_CHECK(WriteFrame(raw.get(), ByteSpan(frame), &error));
          Buf ack;
          HMDSM_CHECK_MSG(ReadFrame(raw.get(), &ack, &error), error);
          rank0.AwaitConnected();
          const auto header = RecordHeader(len);
          HMDSM_CHECK(::write(raw.get(), header.data(), header.size()) ==
                      static_cast<ssize_t>(header.size()));
          std::this_thread::sleep_for(std::chrono::seconds(10));
        },
        "fatal: bad record from process 1: frame length " +
            std::to_string(len) + " ");
  }
}

/// The survivor's half of the scenario below; returns its exit status.
/// Rank 1 (already forked) exits once `go_fd` delivers a byte.
int SurviveDepartedPeer(const TwoRankMesh& mesh, pid_t rank1, int go_fd) {
  SocketTransport rank0(mesh.Options(0));
  rank0.Start();
  rank0.AwaitConnected();
  // The run is over: from here on rank 1's EOF is a goodbye, not a death.
  rank0.BeginShutdown();
  const char go = 1;
  if (::write(go_fd, &go, 1) != 1) return 10;
  int status = 0;
  if (::waitpid(rank1, &status, 0) != rank1) return 11;
  // Writes toward the departed process: the first lands in the socket
  // buffer and draws a reset, a later one fails with EPIPE.
  const Bytes big(64 * 1024, Byte{0x5A});
  for (int i = 0; i < 50; ++i) {
    rank0.SendControl(1, big);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::vector<LinkStats> links = rank0.LinkSnapshots();
  if (links.size() != 1) return 12;
  const LinkStats& link = links[0];
  if (link.up) {
    std::fprintf(stderr, "link to the departed process never retired\n");
    return 13;
  }
  if (link.queue_depth != 0 || link.queue_bytes != 0) {
    std::fprintf(stderr, "retired link still queues %zu frames, %zu bytes\n",
                 link.queue_depth, link.queue_bytes);
    return 14;
  }
  if (link.frames_dropped == 0) {
    std::fprintf(stderr, "sends after the retire were not counted\n");
    return 15;
  }
  rank0.Stop();
  return 0;
}

// A write to a peer process that already left must neither kill the
// survivor (SIGPIPE) nor leave the link swallowing frames: the retired
// link drops its queue and counts every later send as dropped. The
// scenario runs in a forked child so a signal fails this test instead of
// killing the test binary.
TEST(SocketTransportShutdown, WriteToDepartedPeerRetiresTheLink) {
  EXPECT_EXIT(
      {
        TwoRankMesh mesh;
        int go[2];
        HMDSM_CHECK(::pipe(go) == 0);
        const pid_t rank1 = ::fork();
        HMDSM_CHECK(rank1 >= 0);
        if (rank1 == 0) {
          ::close(go[1]);
          ::close(mesh.listen_fds[0]);
          SocketTransport t(mesh.Options(1));
          t.Start();
          t.AwaitConnected();
          char byte;
          _exit(::read(go[0], &byte, 1) == 1 ? 0 : 1);
        }
        ::close(go[0]);
        ::close(mesh.listen_fds[1]);
        std::exit(SurviveDepartedPeer(mesh, rank1, go[1]));
      },
      ::testing::ExitedWithCode(0), "");
}

/// A two-process mesh over the shm rings in one test process, each
/// process hosting `ranks_per_proc` ranks. Every rank has what a Runtime
/// would give it: an agent lock lent to its transport and a dispatcher
/// thread draining its mailbox under that lock.
class ShmMesh {
 public:
  using Handler = net::Transport::Handler;

  ShmMesh(std::size_t ranks_per_proc, const std::vector<Handler>& handlers)
      : rpp_(ranks_per_proc), ranks_(2 * ranks_per_proc) {
    std::vector<int> fds;
    std::vector<std::string> endpoints;
    for (int g = 0; g < 2; ++g) {
      std::uint16_t port = 0;
      std::string error;
      Fd fd = ListenOn("127.0.0.1:0", &port, &error);
      HMDSM_CHECK_MSG(fd.valid(), "listen: " << error);
      fds.push_back(fd.release());
      endpoints.push_back("127.0.0.1:" + std::to_string(port));
    }
    std::vector<std::string> peers;
    for (std::size_t r = 0; r < ranks_.size(); ++r)
      peers.push_back(endpoints[r / rpp_]);
    for (std::size_t g = 0; g < 2; ++g) {
      SocketTransportOptions o;
      o.rank = static_cast<net::NodeId>(g * rpp_);
      o.peers = peers;
      o.ranks_per_proc = rpp_;
      o.io_threads = 1;
      o.listen_fd = fds[g];
      o.heartbeat_interval_ms = 0;
      o.shm = true;
      groups_.push_back(std::make_unique<SocketTransport>(o));
    }
    for (net::NodeId r = 0; r < ranks_.size(); ++r) {
      at(r).SetHandler(r, handlers[r]);
      at(r).LendAgentLock(r, &ranks_[r].agent);
    }
    for (auto& t : groups_) t->Start();
    for (auto& t : groups_) t->AwaitConnected();
    // Nothing is sent before the constructor returns, so the dispatchers
    // can start last (and a failed bring-up leaves no thread to join).
    for (net::NodeId r = 0; r < ranks_.size(); ++r) {
      SocketTransport& t = at(r);
      ranks_[r].dispatcher = std::thread([this, &t, r] {
        net::Packet p;
        while (t.WaitPop(r, p)) {
          // Counted before the handler runs, so a test that saw the
          // handler's effect also sees the count.
          ranks_[r].mailbox_runs.fetch_add(1, std::memory_order_relaxed);
          std::lock_guard lock(ranks_[r].agent);
          t.Dispatch(std::move(p));
        }
      });
    }
  }

  ~ShmMesh() {
    for (net::NodeId r = 0; r < ranks_.size(); ++r)
      at(r).LendAgentLock(r, nullptr);
    for (auto& t : groups_) t->BeginShutdown();
    for (auto& t : groups_) t->Stop();  // closes the mailboxes last
    for (Rank& rank : ranks_) rank.dispatcher.join();
  }

  SocketTransport& at(net::NodeId rank) { return *groups_[rank / rpp_]; }
  std::mutex& agent(net::NodeId rank) { return ranks_[rank].agent; }
  std::uint64_t mailbox_runs(net::NodeId rank) const {
    return ranks_[rank].mailbox_runs.load(std::memory_order_relaxed);
  }
  std::uint64_t inline_runs(net::NodeId rank) {
    std::lock_guard lock(ranks_[rank].agent);
    return at(rank).RecorderFor(rank).Count(stats::Ev::kInlineDispatches);
  }
  /// Sends as `src` under its agent lock, as a guest would.
  void Send(net::NodeId src, net::NodeId dst, Bytes payload) {
    std::lock_guard lock(ranks_[src].agent);
    at(src).Send(src, dst, stats::MsgCat::kObj, Buf(std::move(payload)));
  }
  bool shm_links() {
    for (auto& t : groups_) {
      const std::vector<LinkStats> links = t->LinkSnapshots();
      if (links.size() != 1 || !links[0].shm) return false;
    }
    return true;
  }

 private:
  struct Rank {
    std::mutex agent;
    std::thread dispatcher;
    std::atomic<std::uint64_t> mailbox_runs{0};
  };

  std::size_t rpp_;
  std::deque<Rank> ranks_;
  std::vector<std::unique_ptr<SocketTransport>> groups_;
};

/// Polls `done` for up to `limit`; true once it held.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::seconds limit = std::chrono::seconds(30)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Bytes SeqPayload(net::NodeId src, std::uint64_t seq) {
  Writer w;
  w.u32(src);
  w.u64(seq);
  return w.take();
}

// The shm reader runs a rank's handler itself only while nothing of that
// rank waits in its mailbox, so per-sender FIFO survives the switch in
// both directions: a guest holds rank 2's agent lock mid-stream (frames
// fall back to the mailbox, rank 3 keeps receiving inline), then lets go
// while more frames arrive behind the queued ones. Withdrawing the lent
// lock ends inline delivery.
TEST(InlineDispatch, PerSenderFifoHoldsAcrossTheMailboxFallback) {
  constexpr std::uint64_t kPhase = 400;  // frames per sender, per phase
  constexpr net::NodeId kSenders[] = {0, 1};
  constexpr net::NodeId kDsts[] = {2, 3};
  // next[dst][src]: the sequence number dst expects next from src. Only
  // touched by dst's handler, which always holds dst's agent lock.
  std::uint64_t next[4][2] = {};
  std::atomic<std::uint64_t> handled[4] = {};
  std::atomic<std::uint64_t> out_of_order{0};
  std::vector<ShmMesh::Handler> handlers(4);
  for (const net::NodeId dst : kDsts) {
    handlers[dst] = [&, dst](net::Packet p) {
      Reader r(p.payload.span());
      const net::NodeId src = r.u32();
      const std::uint64_t seq = r.u64();
      if (src != p.src || src > 1 || seq != next[dst][src]) {
        out_of_order.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++next[dst][src];
      }
      handled[dst].fetch_add(1, std::memory_order_release);
    };
  }
  ShmMesh mesh(/*ranks_per_proc=*/2, handlers);
  ASSERT_TRUE(mesh.shm_links()) << "shm rings did not come up";

  std::uint64_t sent = 0;  // per (sender, destination)
  auto send_phase = [&] {
    std::vector<std::thread> senders;
    for (const net::NodeId src : kSenders) {
      senders.emplace_back([&, src] {
        for (std::uint64_t i = 0; i < kPhase; ++i) {
          for (const net::NodeId dst : kDsts)
            mesh.Send(src, dst, SeqPayload(src, sent + i));
        }
      });
    }
    for (std::thread& t : senders) t.join();
    sent += kPhase;
  };
  auto all_handled = [&](net::NodeId dst) {
    return handled[dst].load(std::memory_order_acquire) == 2 * sent;
  };

  send_phase();  // an idle rank: the reader runs the handlers itself
  ASSERT_TRUE(WaitFor([&] { return all_handled(2) && all_handled(3); }));
  EXPECT_GT(mesh.inline_runs(2), 0u);
  EXPECT_GT(mesh.inline_runs(3), 0u);

  SocketTransport& rx = mesh.at(2);
  {
    std::unique_lock guest(mesh.agent(2));
    send_phase();
    // Rank 3 is not held up behind rank 2's lock: the reader never waits
    // on it, and every frame reached a handler or rank 2's mailbox.
    ASSERT_TRUE(WaitFor([&] { return all_handled(3); }));
    ASSERT_TRUE(WaitFor([&] { return rx.wire_received() == 4 * sent; }));
    EXPECT_EQ(handled[2].load(), 2 * (sent - kPhase));
  }
  send_phase();  // sent while rank 2's queued frames drain
  ASSERT_TRUE(WaitFor([&] { return all_handled(2) && all_handled(3); }));
  EXPECT_GE(mesh.mailbox_runs(2), 2 * kPhase);

  EXPECT_EQ(out_of_order.load(), 0u);
  for (const net::NodeId dst : kDsts) {
    for (const net::NodeId src : kSenders) EXPECT_EQ(next[dst][src], sent);
  }
  // Quiescent (the last handler's return is all that may still be under
  // way): every inline delivery was bracketed like a mailbox one.
  EXPECT_TRUE(WaitFor([&] { return rx.dispatched() == 4 * sent; }));
  EXPECT_EQ(rx.enqueued(), rx.dispatched());

  // A withdrawn lock ends inline delivery: the mailbox takes the rest.
  const std::uint64_t inlined = mesh.inline_runs(2);
  const std::uint64_t queued = mesh.mailbox_runs(2);
  rx.LendAgentLock(2, nullptr);
  send_phase();
  ASSERT_TRUE(WaitFor([&] { return all_handled(2); }));
  EXPECT_EQ(mesh.inline_runs(2), inlined);
  EXPECT_EQ(mesh.mailbox_runs(2), queued + 2 * kPhase);
  EXPECT_EQ(out_of_order.load(), 0u);
}

/// Handlers that run on the shm readers send too. Here each rank's
/// handler answers one start frame with a burst of frames big enough to
/// fill the 256 KiB ring, and echoes those back and forth with its partner
/// in the other process: both readers end up writing into a full ring
/// whose own reader is writing into a full ring back. Runs `rounds` such
/// exchanges on one mesh; fails the binary if one does not complete.
void RunEchoesThatFillBothRings(std::size_t ranks_per_proc, int rounds) {
  constexpr std::size_t kFrameBytes = 16 * 1024;
  constexpr std::uint32_t kFrames = 64;  // burst per rank
  constexpr std::uint32_t kHops = 16;    // a burst frame's echoes
  static_assert(kFrames * kFrameBytes > kShmRingBytes);
  const std::size_t ranks = 2 * ranks_per_proc;
  auto partner = [&](net::NodeId r) {
    return static_cast<net::NodeId>((r + ranks_per_proc) % ranks);
  };
  // Byte 0 is no protocol message kind, so no frame is delta-encoded
  // (which would shrink the echoes below the ring size). Then the hop
  // count (0: a start frame) and, on a start frame, whether to answer it
  // with a start frame of our own.
  auto payload = [](std::uint32_t hops, bool answer = false) {
    Bytes b(kFrameBytes, Byte{0x5A});
    b[0] = Byte{0};
    std::memcpy(b.data() + 1, &hops, sizeof hops);
    b[5] = Byte{answer};
    return b;
  };
  std::atomic<std::uint32_t> finished{0};
  // Set once the mesh exists; an atomic, because the only other ordering
  // between this thread and the readers runs through the shared-memory
  // rings, which TSan cannot follow across their two mappings.
  std::atomic<ShmMesh*> mesh_ptr{nullptr};
  std::vector<ShmMesh::Handler> handlers(ranks);
  for (net::NodeId self = 0; self < ranks; ++self) {
    handlers[self] = [&, self](net::Packet p) {
      std::uint32_t hops;
      std::memcpy(&hops, p.payload.data() + 1, sizeof hops);
      if (hops == kHops) {
        finished.fetch_add(1, std::memory_order_release);
        return;
      }
      // Already under self's agent lock (inline or dispatcher).
      auto send = [&](Bytes b) {
        mesh_ptr.load(std::memory_order_acquire)
            ->at(self)
            .Send(self, partner(self), stats::MsgCat::kObj,
                  Buf(std::move(b)));
      };
      if (hops > 0) {
        send(payload(hops + 1));
        return;
      }
      if (p.payload[5] != Byte{0}) send(payload(0));
      for (std::uint32_t i = 0; i < kFrames; ++i) send(payload(1));
    };
  }
  ShmMesh mesh(ranks_per_proc, handlers);
  mesh_ptr.store(&mesh, std::memory_order_release);
  ASSERT_TRUE(mesh.shm_links()) << "shm rings did not come up";
  for (int round = 1; round <= rounds; ++round) {
    for (net::NodeId r = 0; r < ranks_per_proc; ++r)
      mesh.Send(r, partner(r), payload(0, /*answer=*/true));
    const auto expected = static_cast<std::uint32_t>(round * ranks * kFrames);
    if (!WaitFor([&] { return finished.load() == expected; },
                 std::chrono::seconds(20))) {
      // The wedged writers hold the link locks that teardown needs, so a
      // hang cannot be unwound: report it and fail the whole binary.
      std::fprintf(stderr, "echo round %d hung with %u/%u frames home\n",
                   round, finished.load(), expected);
      std::_Exit(1);
    }
  }
  std::uint64_t inlined = 0;
  for (net::NodeId r = 0; r < ranks; ++r) inlined += mesh.inline_runs(r);
  EXPECT_GT(inlined, 0u);
}

// The readers drain their inbound rings while they wait on a full one.
TEST(InlineDispatch, EchoesThatFillBothRingsComplete) {
  RunEchoesThatFillBothRings(/*ranks_per_proc=*/1, /*rounds=*/1);
}

// Two ranks per process: one rank's dispatcher can hold a link's lock,
// waiting for ring space, while the reader needs that lock for another
// rank's inline reply. The reader drains while it waits for the lock too.
// That hang needs an unlucky interleaving (about one round in ten when
// the reader parks on the lock instead), hence the rounds.
TEST(InlineDispatch, EchoesFromTwoRanksPerProcessComplete) {
  RunEchoesThatFillBothRings(/*ranks_per_proc=*/2, /*rounds=*/40);
}

// A ring writer parked on a full ring holds its link's lock. Here rank 1's
// handler blocks on the shm reader, so that reader stops draining and rank
// 0's ring toward it fills, parking rank 0's sender inside its Send. Rank
// 0's Stop() must still return: it wakes the parked writer before it
// takes the link locks.
TEST(ShmTeardown, StopReturnsWhileARingWriterIsParked) {
  constexpr std::size_t kFrameBytes = 16 * 1024;
  constexpr int kFrames = 64;
  static_assert(kFrames * kFrameBytes > 2 * kShmRingBytes);
  std::atomic<bool> release{false};
  std::atomic<bool> blocked{false};
  std::atomic<bool> blocked_inline{false};
  std::atomic<int> sent{0};
  // Set once the mesh exists (the rings give TSan no ordering to see).
  std::atomic<ShmMesh*> mesh_ptr{nullptr};
  std::vector<ShmMesh::Handler> handlers(2);
  handlers[0] = [](net::Packet) {};
  handlers[1] = [&](net::Packet) {
    if (blocked.exchange(true)) return;
    // Inline iff no dispatcher has ever picked up a packet for rank 1.
    blocked_inline.store(
        mesh_ptr.load(std::memory_order_acquire)->mailbox_runs(1) == 0);
    while (!release.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  ShmMesh mesh(/*ranks_per_proc=*/1, handlers);
  mesh_ptr.store(&mesh, std::memory_order_release);
  ASSERT_TRUE(mesh.shm_links()) << "shm rings did not come up";

  std::thread sender([&] {
    Bytes payload(kFrameBytes, Byte{0x5A});
    payload[0] = Byte{0};  // no protocol kind: never delta-encoded
    try {
      for (int i = 0; i < kFrames; ++i) {
        mesh.Send(0, 1, payload);
        sent.fetch_add(1);
      }
    } catch (const CheckError&) {
      // A send that starts after Stop() is refused; that is the end.
    }
  });
  ASSERT_TRUE(WaitFor([&] { return blocked.load(); }));
  // The ring holds fewer than kFrames frames, so the sender parks.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(blocked_inline.load()) << "rank 1's handler ran on a "
                                        "dispatcher; the ring never filled";
  EXPECT_LT(sent.load(), kFrames);

  // Both processes are past the run (a link EOF is a goodbye, not a death).
  mesh.at(0).BeginShutdown();
  mesh.at(1).BeginShutdown();
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    mesh.at(0).Stop();
    stopped.store(true);
  });
  if (!WaitFor([&] { return stopped.load(); }, std::chrono::seconds(5))) {
    // The parked writer holds the link lock that Stop() waits for; the
    // threads cannot be unwound, so fail the whole binary.
    std::fprintf(stderr, "Stop() hung behind a parked ring writer\n");
    std::_Exit(1);
  }
  stopper.join();
  sender.join();
  release.store(true);
}

}  // namespace
}  // namespace hmdsm::netio
