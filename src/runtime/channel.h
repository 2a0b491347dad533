// In-process channel transport for the threads backend.
//
// Every node owns one mailbox (an MPSC channel: any node's thread may push,
// only the node's dispatcher pops). The mailbox fast path is a bounded
// lock-free MPSC ring (MpscRing below) with a locked overflow deque behind
// it, so concurrent senders to a hot node do not serialize on a mutex. A
// message is one serialized proto::wire payload — exactly what the
// simulated network carries — so the protocol cannot tell the backends
// apart except through timing.
//
// Ordering: Agent code always sends while holding its own node's agent
// lock, so all pushes from one source node are serialized; each push
// claims a ring slot (or an overflow deque position) atomically, in a
// total order the consumer pops in. Together that yields the per-sender
// FIFO the protocol relies on (the sim gets the same property from NIC
// transmit serialization; Channel's comment argues the ring/overflow
// transitions). Self-sends go through the mailbox too, so a handler never
// runs re-entrantly inside the sender's call stack.
//
// Delivery, statistics and the enqueued/dispatched counters are the
// shared mailbox core (mailbox_transport.h); ChannelTransport adds only
// the send side and the optional deadline below.
//
// Latency injection (optional): EnableLatencyInjection stamps every
// cross-node Send with a delivery deadline of Now() + scale *
// HockneyModel::Latency(wire bytes); the dispatcher holds each popped
// packet (AwaitDeliveryTime) until its deadline before delivering. The
// semantics are deadline-based, not cumulative sleep: packets queued
// behind a sleeping dispatcher age toward their own deadlines meanwhile,
// so same-size fan-in latencies overlap like the simulator's pipeline
// latencies. Delivery stays per-destination FIFO, though, so a small
// packet queued behind a large one inherits the larger deadline
// (head-of-line blocking — a receive-side serialization the simulator
// does not model; it bounds measured-vs-modeled fidelity for mixed-size
// fan-in). stats::Ev::kHolInherited counts exactly those packets —
// deliveries whose own deadline had already expired by the time the
// dispatcher reached them — so measured-vs-modeled divergence is
// attributable to a number, not a hunch. Traffic statistics are untouched
// — injection shapes time, not traffic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "src/net/hockney.h"
#include "src/runtime/mailbox_transport.h"
#include "src/util/check.h"
#include "src/util/spin.h"

namespace hmdsm::runtime {

using net::NodeId;

/// Sleeps `dt` nanoseconds with sub-scheduler-jiffy accuracy: a coarse
/// sleep_for for the bulk, then a yield-spin to the deadline. Plain
/// sleep_for routinely overshoots by tens of microseconds — the same order
/// as a modeled message latency or compute delay, which would swamp
/// injected Hockney delays and Env::Compute sleeps.
void PreciseSleepFor(sim::Time dt);

/// Bounded lock-free multi-producer single-consumer packet ring (Vyukov
/// sequence-number scheme). Producers claim a slot with one CAS and publish
/// it with one release store; the consumer pops in claim order with plain
/// loads/stores — no mutex anywhere on the fast path. TryPush fails (never
/// blocks) when the ring is full; Channel falls back to its locked overflow
/// deque, so the protocol keeps its unbounded-mailbox semantics.
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer. False when the ring is full; `packet` is untouched
  /// then (the caller still owns it).
  bool TryPush(net::Packet&& packet) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.packet = std::move(packet);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: a whole lap behind the consumer
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer. False when the next slot holds no published packet —
  /// either the ring is empty or a producer is mid-publish (Empty()
  /// distinguishes the two).
  bool TryPop(net::Packet& out) {
    Slot& slot = slots_[head_ & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(head_ + 1) < 0) {
      return false;
    }
    out = std::move(slot.packet);
    slot.packet = net::Packet{};  // drop the payload ref promptly
    slot.seq.store(head_ + mask_ + 1, std::memory_order_release);
    ++head_;
    return true;
  }

  /// Consumer-side: true when no producer has even *claimed* a slot ahead
  /// of the consumer. (!Empty() after a failed TryPop means a publish is in
  /// flight and will complete momentarily.)
  bool Empty() const {
    return tail_.load(std::memory_order_acquire) == head_;
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    net::Packet packet;
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producers
  alignas(64) std::size_t head_ = 0;              // consumer only
};

/// One node's mailbox: multi-producer, single-consumer (the dispatcher).
///
/// Fast path is the lock-free MpscRing — a push is one CAS plus one release
/// store, so concurrent senders never serialize on a mailbox mutex. When
/// the ring fills, producers fall back to a locked overflow deque; once any
/// packet sits in overflow, *all* producers keep using it until the
/// consumer drains it, and the consumer always exhausts the ring before
/// touching overflow. Per-sender FIFO survives both transitions:
///   * ring -> overflow: a sender's earlier ring packets are popped (ring
///     is exhausted first) before its overflow packets;
///   * overflow -> ring: a sender re-enters the ring only after the
///     overflow is empty, i.e. its overflow packets were already popped.
///
/// The overflow queue is an intrusive singly-linked list whose nodes come
/// from a bounded free list, so a mailbox that oscillates across the
/// ring-full boundary stops allocating after warm-up — overflow bursts are
/// exactly the moments the allocator lock would hurt most. overflow_allocs()
/// counts the nodes that had to come from the allocator; steady state means
/// the counter stops moving.
class Channel {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 512;
  /// Free nodes kept for reuse; beyond this, pops release to the allocator.
  /// Sized to a few ring capacities: an overflow deeper than that is a
  /// sustained imbalance, not a burst worth holding memory for.
  static constexpr std::size_t kMaxFreeNodes = 1024;

  explicit Channel(std::size_t ring_capacity = kDefaultRingCapacity)
      : ring_(ring_capacity) {}

  ~Channel() {
    FreeList(ov_head_);
    FreeList(free_);
  }

  /// A push that starts after Close() throws "send on closed channel"; a
  /// push racing Close() may instead land and be dropped with the rest of
  /// the queue (identical to losing the same race against the old mutex —
  /// close drops all remaining packets either way).
  void Push(net::Packet&& packet) {
    HMDSM_CHECK_MSG(!closed_.load(std::memory_order_acquire),
                    "send on closed channel");
    if (overflow_active_.load(std::memory_order_acquire) ||
        !ring_.TryPush(std::move(packet))) {
      std::lock_guard lock(mu_);
      HMDSM_CHECK_MSG(!closed_.load(std::memory_order_relaxed),
                      "send on closed channel");
      OvNode* node = free_;
      if (node != nullptr) {
        free_ = node->next;
        --free_count_;
      } else {
        node = new OvNode;
        overflow_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      node->packet = std::move(packet);
      node->next = nullptr;
      if (ov_tail_ != nullptr) {
        ov_tail_->next = node;
      } else {
        ov_head_ = node;
      }
      ov_tail_ = node;
      overflow_active_.store(true, std::memory_order_release);
    }
    Knock();
  }

  /// Blocks until a packet is available or the channel is closed. Returns
  /// false only when the channel is closed (remaining packets are dropped:
  /// close means the run is over).
  ///
  /// Spin-then-block: protocol traffic is bursty request/response chains
  /// where the next packet typically lands within microseconds, while a
  /// condvar block costs a scheduler wake. The dispatcher first polls for
  /// the one SpinThenPark window (util/spin.h), counting the outcome into
  /// `tally` when given; an idle dispatcher then parks on the eventcount
  /// below.
  bool WaitPop(net::Packet& out, SpinTally* tally = nullptr) {
    bool popped = false;
    const auto ready = [&] {
      if (closed_.load(std::memory_order_acquire)) return true;
      popped = TryPop(out);
      return popped;
    };
    if (SpinThenPark(ready, tally)) return popped;

    for (;;) {
      // Eventcount handshake with Knock(): the waiting_ store and the
      // producers' publish are both sequenced by seq_cst fences, so either
      // the TryPop below sees the packet or the producer sees waiting_ and
      // takes the mutex to notify. The timed wait is a pure backstop.
      waiting_.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (TryPop(out)) {
        waiting_.store(false, std::memory_order_relaxed);
        return true;
      }
      {
        std::unique_lock lock(mu_);
        if (closed_.load(std::memory_order_relaxed)) {
          waiting_.store(false, std::memory_order_relaxed);
          return false;
        }
        if (ring_.Empty() && ov_head_ == nullptr) {
          cv_.wait_for(lock, std::chrono::milliseconds(10));
        }
      }
      waiting_.store(false, std::memory_order_relaxed);
    }
  }

  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Overflow nodes that had to come from the allocator (free list empty).
  /// Flat after warm-up = allocation-free steady state.
  std::uint64_t overflow_allocs() const {
    return overflow_allocs_.load(std::memory_order_relaxed);
  }

 private:
  /// Single consumer: ring strictly first, overflow only once the ring is
  /// fully drained (see the class comment for why that ordering is what
  /// preserves per-sender FIFO).
  bool TryPop(net::Packet& out) {
    for (;;) {
      if (ring_.TryPop(out)) return true;
      if (ring_.Empty()) break;
      // A producer claimed the head slot but has not published it yet.
      // Everything in overflow is newer than that claim, so skipping ahead
      // would reorder; spin the publish out instead (it is two machine
      // stores away).
      std::this_thread::yield();
    }
    if (!overflow_active_.load(std::memory_order_acquire)) return false;
    std::lock_guard lock(mu_);
    if (ov_head_ == nullptr) return false;
    OvNode* node = ov_head_;
    ov_head_ = node->next;
    if (ov_head_ == nullptr) {
      ov_tail_ = nullptr;
      overflow_active_.store(false, std::memory_order_release);
    }
    out = std::move(node->packet);
    node->packet = net::Packet{};  // drop the payload ref promptly
    if (free_count_ < kMaxFreeNodes) {
      node->next = free_;
      free_ = node;
      ++free_count_;
    } else {
      delete node;
    }
    return true;
  }

  /// Producer-side wake: only touches the mutex when the consumer is
  /// (about to be) parked, so the hot path stays lock-free.
  void Knock() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard lock(mu_);
      cv_.notify_one();
    }
  }

  struct OvNode {
    net::Packet packet;
    OvNode* next = nullptr;
  };

  static void FreeList(OvNode* node) {
    while (node != nullptr) {
      OvNode* next = node->next;
      delete node;
      node = next;
    }
  }

  MpscRing ring_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> overflow_active_{false};
  std::atomic<bool> waiting_{false};
  mutable std::mutex mu_;  // overflow list + free list + eventcount sleep
  std::condition_variable cv_;
  OvNode* ov_head_ = nullptr;  // FIFO overflow queue
  OvNode* ov_tail_ = nullptr;
  OvNode* free_ = nullptr;  // recycled nodes, bounded by kMaxFreeNodes
  std::size_t free_count_ = 0;
  std::atomic<std::uint64_t> overflow_allocs_{0};
};

/// The threads backend's Transport: the mailbox delivery core hosting
/// every cluster node, plus the optional Hockney deadline.
class ChannelTransport final : public MailboxTransport {
 public:
  explicit ChannelTransport(std::size_t node_count)
      : MailboxTransport(node_count, 0, node_count) {}

  /// Charges a cross-node send, stamps its injected deadline, and delivers
  /// it into the destination mailbox. Called with the sender's node
  /// serialization in force (agent lock), which is what makes the
  /// per-node send accounting race-free.
  void Send(NodeId src, NodeId dst, stats::MsgCat cat, Buf payload) override;

  /// Enables wall-clock latency injection (see file comment). `scale`
  /// multiplies the modeled latency; <= 0 disables injection entirely.
  /// Call before traffic starts flowing.
  void EnableLatencyInjection(const net::HockneyModel& model, double scale) {
    inject_model_ = model;
    inject_scale_ = scale;
  }
  bool latency_injection_enabled() const { return inject_scale_ > 0; }

  /// Blocks until `packet`'s injected delivery deadline. No-op when
  /// injection is off or the deadline already passed — but an
  /// already-passed deadline means the packet waited behind an earlier
  /// (larger) packet's sleep and effectively inherited its delivery time,
  /// so it is counted as Ev::kHolInherited. Dispatchers call this after
  /// popping and *before* taking the destination agent lock, so a sleeping
  /// delivery never blocks the node's guests.
  void AwaitDeliveryTime(const net::Packet& packet) const override {
    if (packet.deliver_after <= 0) return;
    const sim::Time wait = packet.deliver_after - Now();
    if (wait > 0) {
      PreciseSleepFor(wait);
    } else {
      hol_inherited_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  /// Total messages delivered so far (self-sends excluded).
  std::uint64_t packets_sent() const {
    return packets_sent_.load(std::memory_order_acquire);
  }

  /// Also snapshots the head-of-line baseline, so the measured window
  /// reports only its own inherited deadlines.
  void ResetStats() override;

  /// Adds the transport-wide head-of-line counter to node 0's snapshot.
  void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const override;

 private:
  std::atomic<std::uint64_t> packets_sent_{0};
  mutable std::atomic<std::uint64_t> hol_inherited_{0};
  std::uint64_t hol_inherited_base_ = 0;  // ResetStats snapshot
  net::HockneyModel inject_model_{70.0, 12.5};  // written before dispatch
  double inject_scale_ = 0.0;                   // starts; read-only after
};

}  // namespace hmdsm::runtime
