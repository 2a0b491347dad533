#include "src/net/transport.h"

#include <utility>

namespace hmdsm::net {

Transport::Transport(std::size_t node_count)
    : handlers_(node_count), recorders_(node_count) {
  for (stats::Recorder& r : recorders_) r.SetNodeCount(node_count);
}

void Transport::SetHandler(NodeId node, Handler handler) {
  HMDSM_CHECK(node < handlers_.size());
  handlers_[node] = std::move(handler);
}

void Transport::Broadcast(NodeId src, stats::MsgCat cat,
                          const Buf& payload) {
  for (NodeId dst = 0; dst < node_count(); ++dst) {
    if (dst == src) continue;
    Send(src, dst, cat, payload);
  }
}

stats::Recorder Transport::Totals() const {
  stats::Recorder total;
  total.SetNodeCount(node_count());
  for (NodeId n = 0; n < node_count(); ++n) total.Merge(RecorderFor(n));
  return total;
}

void Transport::ResetStats() {
  for (stats::Recorder& r : recorders_) r.Reset();
}

std::size_t Transport::ChargeSend(NodeId src, stats::MsgCat cat,
                                  std::size_t payload_bytes) {
  const std::size_t wire_bytes = payload_bytes + kHeaderBytes;
  recorders_[src].RecordMessage(cat, wire_bytes);
  recorders_[src].RecordSent(src, wire_bytes);
  return wire_bytes;
}

void Transport::Receive(Packet&& packet) {
  Handler& handler = handlers_[packet.dst];
  HMDSM_CHECK_MSG(handler, "no handler registered for node " << packet.dst);
  if (packet.src != packet.dst) {
    recorders_[packet.dst].RecordReceived(
        packet.dst, packet.payload.size() + kHeaderBytes);
  }
  handler(std::move(packet));
}

}  // namespace hmdsm::net
