// runtime::MailboxTransport — the one mailbox delivery core between
// runtime::Runtime and a concrete message fabric.
//
// A process hosts a consecutive range of the cluster's nodes. For each one
// this class keeps the whole delivery state: its mailbox (a runtime::
// Channel), the count of packets pushed but not yet handled, and the agent
// lock the Runtime lends it. On top of the handler and recorder tables of
// net::Transport it owns the enqueued/dispatched counters, the steady
// clock, mailbox dwell, the per-node overflow-alloc window and the one
// Deliver rule. Two fabrics build on it and add only how a packet travels:
//
//   * runtime::ChannelTransport — the in-process threads backend: every
//     cluster node lives in this process; Send stamps an optional Hockney
//     deadline and delivers into the destination's mailbox.
//   * netio::SocketTransport — the multi-process sockets backend: ranks in
//     other processes are reached over TCP (or a shared-memory ring), and
//     the reactor and ring reader Deliver what they receive.
//
// Runtime's dispatcher threads are fabric-agnostic: they block in WaitPop
// for the next packet addressed to a hosted node, honour the packet's
// injected delivery deadline (AwaitDeliveryTime), and then Dispatch it
// under the node's agent lock.
//
// Inline dispatch: the Runtime lends each hosted node's agent lock to the
// transport (LendAgentLock). Deliver(packet, may_inline) runs the handler
// on the calling thread when the destination is idle — nothing of it in
// the mailbox or a dispatcher's hands, and its agent lock free by
// try-lock — saving the dispatcher's scheduler wake. Only netio::
// SocketTransport's shm ring reader passes may_inline; the invariants:
//   * per-sender FIFO: a packet is never inlined while an earlier packet
//     for the same node still waits in the mailbox;
//   * the caller never blocks on an agent lock (try-lock only), so one
//     hosted node's handler cannot stall another node's delivery;
//   * enqueued/dispatched bracket every inline delivery like a mailbox one;
//   * no inline delivery starts once the lock is withdrawn (Runtime::
//     Shutdown); later packets meet the mailbox, closed or not.
// Tests: netio_socket_transport_test (InlineDispatch.*).
//
// The enqueued/dispatched counters cover every packet that enters a
// *local* mailbox (self-sends included) or is dispatched inline;
// `enqueued() == dispatched()` with no local worker running means this
// process is locally quiescent. On the sockets backend that is only one
// conjunct of cluster quiescence — the netio coordinator combines it with
// matched wire counters across ranks.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/transport.h"

namespace hmdsm::runtime {

class MailboxTransport : public net::Transport {
 public:
  /// A cluster of `node_count` nodes of which this process hosts
  /// [first_hosted, first_hosted + hosted_count).
  MailboxTransport(std::size_t node_count, net::NodeId first_hosted,
                   std::size_t hosted_count);
  ~MailboxTransport() override;

  /// Every node this process hosts, ascending.
  const std::vector<net::NodeId>& hosted() const { return hosted_; }
  bool hosts(net::NodeId node) const {
    return node >= first_ && node - first_ < hosted_.size();
  }

  /// Wall-clock nanoseconds since transport construction.
  sim::Time Now() const final {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Blocks for the next packet addressed to hosted `node`; returns false
  /// once the mailbox is closed.
  bool WaitPop(net::NodeId node, net::Packet& out);

  /// Delivers one popped packet: mailbox dwell, then the receive step.
  /// Must be called under the destination node's agent lock.
  void Dispatch(net::Packet&& packet);

  /// Closes every hosted mailbox; dispatchers drain out of WaitPop with
  /// false.
  void CloseAll();

  /// Lends hosted `node`'s agent lock (nullptr withdraws it). While lent,
  /// Deliver may run `node`'s handler on its caller's thread under a
  /// try-lock of `agent_lock` (file comment). Withdrawal blocks until no
  /// such delivery is in flight.
  void LendAgentLock(net::NodeId node, std::mutex* agent_lock);

  /// Packets delivered to hosted nodes (pushed into a mailbox or
  /// dispatched inline) / fully handled so far.
  std::uint64_t enqueued() const {
    return enqueued_.load(std::memory_order_acquire);
  }
  std::uint64_t dispatched() const {
    return dispatched_.load(std::memory_order_acquire);
  }

  /// Blocks until `packet`'s injected delivery deadline (latency-injection
  /// fabrics only; default: deliver immediately).
  virtual void AwaitDeliveryTime(const net::Packet& packet) const {
    (void)packet;
  }

  /// Also re-baselines every hosted mailbox's overflow-alloc counter, so
  /// the measured window reports only its own allocations.
  void ResetStats() override;

  /// Folds statistics that live outside the recorders into a snapshot of
  /// hosted `node`'s recorder: here, its mailbox's overflow allocations
  /// in the window; fabrics add their own. Called by Runtime::
  /// SnapshotRecorder/Totals on the copy, never on the live recorder.
  virtual void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const;

 protected:
  /// The one delivery path into a hosted node: runs the handler right here
  /// when `may_inline` and the node is idle (file comment), else pushes
  /// the packet into the node's mailbox.
  void Deliver(net::Packet packet, bool may_inline);

  /// The agent lock currently lent for `node` (null: none, or not hosted).
  std::mutex* lent_agent_lock(net::NodeId node);

 private:
  struct Inbox;  // mailbox_transport.cc
  Inbox& inbox(net::NodeId node) const;
  /// Dwell, the receive step, then `dispatched`.
  void RunHandler(net::Packet&& packet);

  net::NodeId first_;
  std::vector<net::NodeId> hosted_;
  std::unique_ptr<Inbox[]> inboxes_;  // one per hosted node
  /// Guards every Inbox::agent_lock. Deliver holds it (try-locked) across
  /// an inline delivery, so a withdrawal waits that delivery out.
  std::mutex lend_mu_;
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hmdsm::runtime
