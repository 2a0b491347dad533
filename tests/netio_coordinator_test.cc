// netio::Coordinator's lead rounds, driven in one process: three
// SocketTransport + Runtime + Coordinator triples over loopback TCP (no
// fork, so the suite also runs under TSan). Every round the lead opens —
// quiesce, stats gather and live poll, reset, shutdown — must complete,
// and the poll thread's rounds must not cross the main thread's.
#include "src/netio/coordinator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace hmdsm::netio {
namespace {

constexpr std::size_t kProcs = 3;

/// One process of the mesh: its transport, the runtime hosting its one
/// rank, and the coordinator, constructed in the sockets backend's order.
struct Proc {
  explicit Proc(SocketTransportOptions options)
      : transport(std::move(options)),
        rt(Options(), transport),
        coord(transport, rt, /*lead=*/0) {}

  static runtime::RuntimeOptions Options() {
    runtime::RuntimeOptions o;
    o.nodes = kProcs;
    return o;
  }

  SocketTransport transport;
  runtime::Runtime rt;
  Coordinator coord;
};

class CoordinatorRounds : public ::testing::Test {
 protected:
  CoordinatorRounds() {
    std::vector<int> fds;
    std::vector<std::string> peers;
    for (std::size_t r = 0; r < kProcs; ++r) {
      std::uint16_t port = 0;
      std::string error;
      Fd fd = ListenOn("127.0.0.1:0", &port, &error);
      HMDSM_CHECK_MSG(fd.valid(), "listen: " << error);
      fds.push_back(fd.release());
      peers.push_back("127.0.0.1:" + std::to_string(port));
    }
    for (std::size_t r = 0; r < kProcs; ++r) {
      SocketTransportOptions o;
      o.rank = static_cast<net::NodeId>(r);
      o.peers = peers;
      o.listen_fd = fds[r];
      o.shm = false;
      procs_.push_back(std::make_unique<Proc>(std::move(o)));
    }
    for (auto& p : procs_) p->transport.Start();
    for (auto& p : procs_) p->transport.AwaitConnected();
  }

  ~CoordinatorRounds() override {
    lead().StopPolling();
    // Every link is a goodbye before any process closes its end.
    for (auto& p : procs_) p->transport.BeginShutdown();
    for (auto& p : procs_) p->rt.Shutdown();
    for (auto& p : procs_) p->transport.Stop();
  }

  Coordinator& lead() { return procs_[0]->coord; }

  std::vector<std::unique_ptr<Proc>> procs_;
};

TEST_F(CoordinatorRounds, QuiesceAndResetComplete) {
  ASSERT_TRUE(lead().is_lead());
  EXPECT_FALSE(procs_[1]->coord.is_lead());
  lead().GlobalQuiesce();
  lead().GlobalResetStats();
  lead().GlobalQuiesce();  // rounds after a reset still find every process
}

TEST_F(CoordinatorRounds, GatherWhilePollingBothComplete) {
  lead().StartPolling(0.01);
  // The main thread's gather rounds and the poll thread's stats rounds are
  // open at the same time; each must collect its own replies.
  Coordinator::PollView view;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    const stats::Recorder total = lead().GatherStats();
    EXPECT_EQ(total.TotalMessages(), 0u);  // no data traffic in this mesh
    view = lead().LatestPoll();
    if (view.valid && view.answered == view.expected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  lead().StopPolling();
  ASSERT_TRUE(view.valid) << "no poll completed";
  EXPECT_EQ(view.expected, kProcs - 1);
  EXPECT_EQ(view.answered, kProcs - 1);
  EXPECT_TRUE(view.stale.empty());
}

class CoordinatorShutdown : public CoordinatorRounds,
                            public ::testing::WithParamInterface<bool> {};

TEST_P(CoordinatorShutdown, EveryHostSeesTheAbortBit) {
  const bool abort = GetParam();
  std::vector<int> seen(kProcs, -1);
  std::vector<std::thread> hosts;
  for (std::size_t r = 1; r < kProcs; ++r) {
    hosts.emplace_back([this, r, &seen] {
      Coordinator& c = procs_[r]->coord;
      seen[r] = c.AwaitShutdown() ? 1 : 0;
      c.AckShutdown();
      c.AwaitShutdownDone();
    });
  }
  EXPECT_NO_THROW(lead().ShutdownMesh(abort));
  for (std::thread& t : hosts) t.join();
  for (std::size_t r = 1; r < kProcs; ++r)
    EXPECT_EQ(seen[r], abort ? 1 : 0) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(AbortBit, CoordinatorShutdown, ::testing::Bool());

}  // namespace
}  // namespace hmdsm::netio
