// SocketTransport at the edges of a run's lifetime: a peer that speaks an
// older protocol version at handshake, a peer that sends a malformed
// control frame or an out-of-bounds record length, and a peer process that
// is gone while the survivor is still shutting down and writing toward it.
#include "src/netio/socket_transport.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
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
        runtime::Runtime rt0(ro, t0, 0);
        runtime::Runtime rt1(ro, t1, 1);
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

}  // namespace
}  // namespace hmdsm::netio
