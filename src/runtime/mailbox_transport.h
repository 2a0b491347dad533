// The mailbox-transport seam between runtime::Runtime and a concrete
// message fabric.
//
// Runtime's dispatcher threads are fabric-agnostic: they block in WaitPop
// for the next packet addressed to a node this process hosts, honour the
// packet's injected delivery deadline, and then Dispatch it under the
// node's agent lock. Two fabrics implement the contract:
//
//   * runtime::ChannelTransport — the in-process threads backend: every
//     cluster node lives in this process and has its own mailbox.
//   * netio::SocketTransport — the multi-process sockets backend: the
//     consecutive ranks this process hosts are local, each with its own
//     mailbox; ranks in other processes are reached over TCP (or a
//     shared-memory ring), and the reactor threads feed received packets
//     into the local mailboxes.
//
// Inline dispatch: the Runtime lends each hosted node's agent lock to the
// transport (LendAgentLock). A transport whose receive thread finds the
// destination idle — nothing of it in the mailbox or a dispatcher's hands,
// and its agent lock free by try-lock — may run the handler right there,
// saving the dispatcher's scheduler wake. Only netio::SocketTransport's shm
// ring reader does (see its Deliver); the invariants it keeps:
//   * per-sender FIFO: a frame is never inlined while an earlier packet
//     for the same node still waits in the mailbox;
//   * the receive thread never blocks on an agent lock (try-lock only), so
//     one hosted node's handler cannot stall another node's delivery;
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

#include <mutex>

#include "src/net/transport.h"

namespace hmdsm::runtime {

class MailboxTransport : public net::Transport {
 public:
  /// Blocks for the next packet addressed to `node` (which must be hosted
  /// by this process); returns false once the mailbox is closed.
  virtual bool WaitPop(net::NodeId node, net::Packet& out) = 0;

  /// Delivers one popped packet: receive-side accounting plus the
  /// registered handler. Must be called under the destination node's agent
  /// lock.
  virtual void Dispatch(net::Packet&& packet) = 0;

  /// Closes every locally hosted mailbox; dispatchers drain out of WaitPop
  /// with false.
  virtual void CloseAll() = 0;

  /// Lends hosted `node`'s agent lock (nullptr withdraws it). While lent,
  /// the transport may hand a packet to `node`'s handler on its own
  /// receive thread, under a try-lock of `agent_lock` (file comment).
  /// Withdrawal blocks until no such delivery is in flight. Default: the
  /// transport never dispatches inline.
  virtual void LendAgentLock(net::NodeId node, std::mutex* agent_lock) {
    (void)node;
    (void)agent_lock;
  }

  /// Packets delivered to local nodes (pushed into a mailbox or
  /// dispatched inline) / fully handled so far.
  virtual std::uint64_t enqueued() const = 0;
  virtual std::uint64_t dispatched() const = 0;

  /// Blocks until `packet`'s injected delivery deadline (latency-injection
  /// fabrics only; default: deliver immediately).
  virtual void AwaitDeliveryTime(const net::Packet& packet) const {
    (void)packet;
  }

  /// Folds transport-level statistics that live outside the per-node
  /// recorders (wire-write counters, syscall-latency histograms kept by
  /// writer threads) into a snapshot of `node`'s recorder. Called by
  /// Runtime::SnapshotRecorder/Totals on the copy, never on the live
  /// recorder.
  virtual void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const {
    (void)node;
    (void)into;
  }
};

}  // namespace hmdsm::runtime
