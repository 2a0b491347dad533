#include "src/runtime/channel.h"

#include <thread>
#include <utility>

namespace hmdsm::runtime {

void PreciseSleepFor(sim::Time dt) {
  if (dt <= 0) return;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(dt);
  // Leave the typical coarse-sleep overshoot as spin margin.
  constexpr sim::Time kSpinMarginNs = 150'000;
  if (dt > kSpinMarginNs)
    std::this_thread::sleep_for(std::chrono::nanoseconds(dt - kSpinMarginNs));
  while (std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
}

void ChannelTransport::ResetStats() {
  MailboxTransport::ResetStats();
  hol_inherited_base_ = hol_inherited_.load(std::memory_order_acquire);
}

void ChannelTransport::AugmentSnapshot(NodeId node,
                                       stats::Recorder& into) const {
  MailboxTransport::AugmentSnapshot(node, into);
  if (node == 0) {
    into.Bump(stats::Ev::kHolInherited,
              hol_inherited_.load(std::memory_order_acquire) -
                  hol_inherited_base_);
  }
}

void ChannelTransport::Send(NodeId src, NodeId dst, stats::MsgCat cat,
                            Buf payload) {
  HMDSM_CHECK(src < node_count() && dst < node_count());
  net::Packet packet{src, dst, cat, std::move(payload)};
  if (src != dst) {
    const std::size_t wire_bytes =
        ChargeSend(src, cat, packet.payload.size());
    packets_sent_.fetch_add(1, std::memory_order_acq_rel);
    if (inject_scale_ > 0) {
      // Self-sends stay immediate, matching the sim's free local delivery.
      packet.deliver_after =
          Now() + static_cast<sim::Time>(
                      static_cast<double>(inject_model_.Latency(wire_bytes)) *
                      inject_scale_);
    }
  }
  Deliver(std::move(packet), /*may_inline=*/false);
}

}  // namespace hmdsm::runtime
