#include "src/runtime/mailbox_transport.h"

#include <utility>

#include "src/runtime/channel.h"

namespace hmdsm::runtime {

/// One hosted node's delivery state.
struct MailboxTransport::Inbox {
  Channel mailbox;
  /// Packets pushed into `mailbox` whose handler has not returned yet.
  /// Inline dispatch waits for zero, so it never overtakes one of them.
  std::atomic<std::uint64_t> pending{0};
  /// The Runtime's agent lock for this node (null: not lent, never
  /// inline). Guarded by lend_mu_.
  std::mutex* agent_lock = nullptr;
  /// Spin outcomes of this node's dispatcher and guests.
  SpinTally spin;
  /// mailbox.overflow_allocs() and the spin counts at the last ResetStats
  /// (atomic: a live stats poll may snapshot concurrently with the
  /// quiescent-point reset).
  std::atomic<std::uint64_t> overflow_alloc_base{0};
  std::atomic<std::uint64_t> spin_hits_base{0};
  std::atomic<std::uint64_t> spin_parks_base{0};
};

MailboxTransport::MailboxTransport(std::size_t node_count,
                                   net::NodeId first_hosted,
                                   std::size_t hosted_count)
    : Transport(node_count),
      first_(first_hosted),
      inboxes_(std::make_unique<Inbox[]>(hosted_count)),
      epoch_(std::chrono::steady_clock::now()) {
  HMDSM_CHECK_MSG(hosted_count >= 1 && first_hosted < node_count &&
                      hosted_count <= node_count - first_hosted,
                  "cannot host " << hosted_count << " nodes from node "
                                 << first_hosted << " of " << node_count);
  hosted_.reserve(hosted_count);
  for (std::size_t i = 0; i < hosted_count; ++i)
    hosted_.push_back(static_cast<net::NodeId>(first_hosted + i));
}

MailboxTransport::~MailboxTransport() = default;

MailboxTransport::Inbox& MailboxTransport::inbox(net::NodeId node) const {
  HMDSM_CHECK_MSG(hosts(node), "transport hosting nodes "
                                   << first_ << ".." << hosted_.back()
                                   << " does not host node " << node);
  return inboxes_[node - first_];
}

bool MailboxTransport::WaitPop(net::NodeId node, net::Packet& out) {
  Inbox& box = inbox(node);
  return box.mailbox.WaitPop(out, &box.spin);
}

SpinTally& MailboxTransport::spin_tally(net::NodeId node) const {
  return inbox(node).spin;
}

void MailboxTransport::CloseAll() {
  for (std::size_t i = 0; i < hosted_.size(); ++i) inboxes_[i].mailbox.Close();
}

void MailboxTransport::LendAgentLock(net::NodeId node, std::mutex* agent_lock) {
  Inbox& box = inbox(node);
  std::lock_guard lock(lend_mu_);
  box.agent_lock = agent_lock;
}

std::mutex* MailboxTransport::lent_agent_lock(net::NodeId node) {
  if (!hosts(node)) return nullptr;
  std::lock_guard lock(lend_mu_);
  return inbox(node).agent_lock;
}

void MailboxTransport::Deliver(net::Packet packet, bool may_inline) {
  Inbox& box = inbox(packet.dst);
  // Count first: once a handler or the dispatcher can see the packet,
  // enqueued() must already cover it, or AwaitQuiescence could observe
  // enqueued == dispatched with a packet still in flight.
  enqueued_.fetch_add(1, std::memory_order_acq_rel);
  // Inline only when nothing for this node is queued or being handled:
  // those packets may come from this packet's sender, and must run first.
  // Every test here is a try — the caller is the shm reader, which other
  // nodes' frames wait behind.
  if (may_inline && box.pending.load(std::memory_order_acquire) == 0) {
    std::unique_lock lend(lend_mu_, std::try_to_lock);
    if (lend.owns_lock() && box.agent_lock != nullptr) {
      std::unique_lock agent(*box.agent_lock, std::try_to_lock);
      if (agent.owns_lock()) {
        // Under the agent lock, like every recorder write. No dwell is
        // recorded (enqueued_at stays 0): the packet never sat anywhere.
        RecorderFor(packet.dst).Bump(stats::Ev::kInlineDispatches);
        RunHandler(std::move(packet));
        return;
      }
    }
  }
  box.pending.fetch_add(1, std::memory_order_acq_rel);
  packet.enqueued_at = Now();
  box.mailbox.Push(std::move(packet));
}

void MailboxTransport::Dispatch(net::Packet&& packet) {
  Inbox& box = inbox(packet.dst);
  RunHandler(std::move(packet));
  // Only now may Deliver inline this node's next packet.
  box.pending.fetch_sub(1, std::memory_order_acq_rel);
}

void MailboxTransport::RunHandler(net::Packet&& packet) {
  if (packet.enqueued_at > 0) {
    const sim::Time age = Now() - packet.enqueued_at;
    RecorderFor(packet.dst)
        .RecordLatency(stats::Lat::kMailboxDwell,
                       static_cast<std::uint64_t>(age > 0 ? age : 0));
  }
  Receive(std::move(packet));
  // After the handler: anything it sent has already bumped enqueued_.
  dispatched_.fetch_add(1, std::memory_order_acq_rel);
}

void MailboxTransport::ResetStats() {
  Transport::ResetStats();
  for (std::size_t i = 0; i < hosted_.size(); ++i) {
    Inbox& box = inboxes_[i];
    box.overflow_alloc_base.store(box.mailbox.overflow_allocs(),
                                  std::memory_order_release);
    box.spin_hits_base.store(box.spin.hits.load(std::memory_order_relaxed),
                             std::memory_order_release);
    box.spin_parks_base.store(box.spin.parks.load(std::memory_order_relaxed),
                              std::memory_order_release);
  }
}

void MailboxTransport::AugmentSnapshot(net::NodeId node,
                                       stats::Recorder& into) const {
  const Inbox& box = inbox(node);
  // Baselines first: a counter read after its baseline is at least the
  // value ResetStats stored, so a racing reset cannot underflow a delta.
  const std::uint64_t overflow_base =
      box.overflow_alloc_base.load(std::memory_order_acquire);
  const std::uint64_t hits_base =
      box.spin_hits_base.load(std::memory_order_acquire);
  const std::uint64_t parks_base =
      box.spin_parks_base.load(std::memory_order_acquire);
  into.Bump(stats::Ev::kMailboxOverflowAllocs,
            box.mailbox.overflow_allocs() - overflow_base);
  into.Bump(stats::Ev::kSpinHits,
            box.spin.hits.load(std::memory_order_relaxed) - hits_base);
  into.Bump(stats::Ev::kSpinParks,
            box.spin.parks.load(std::memory_order_relaxed) - parks_base);
}

}  // namespace hmdsm::runtime
