#include "src/net/network.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace hmdsm::net {

void Network::Send(NodeId src, NodeId dst, stats::MsgCat cat, Buf payload) {
  HMDSM_CHECK(src < node_count() && dst < node_count());
  Packet packet{src, dst, cat, std::move(payload)};
  if (src == dst) {
    // Local handoff: no wire traffic, no latency, but still asynchronous so
    // the handler never runs re-entrantly inside the sender's call stack.
    ScheduleReceive(kernel_.now(), std::move(packet));
    return;
  }
  const std::size_t wire_bytes =
      ChargeSend(src, cat, packet.payload.size());
  ++packets_sent_;
  sim::Time arrival;
  if (model_tx_occupancy_) {
    // The transmit term m/r∞ occupies the sender NIC; the startup term t0
    // pipelines. An isolated message still arrives at now + t0 + m/r∞.
    const sim::Time now = kernel_.now();
    const sim::Time occupancy =
        model_.Latency(wire_bytes) - model_.Latency(0);
    const sim::Time tx_start = std::max(now, tx_free_[src]);
    tx_free_[src] = tx_start + occupancy;
    arrival = tx_free_[src] + model_.Latency(0);
  } else {
    arrival = kernel_.now() + model_.Latency(wire_bytes);
  }
  ScheduleReceive(arrival, std::move(packet));
}

void Network::ScheduleReceive(sim::Time at, Packet&& packet) {
  kernel_.ScheduleAt(
      at, [this, p = std::make_shared<Packet>(std::move(packet))]() mutable {
        Receive(std::move(*p));
      });
}

}  // namespace hmdsm::net
