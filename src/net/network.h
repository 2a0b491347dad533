// Simulated cluster interconnect — the sim backend's Transport.
//
// What the simulator adds to the delivery core (net/transport.h): Hockney
// latency, sender NIC occupancy and virtual-time delivery events. Charging
// and handler dispatch are the core's ChargeSend/Receive. Handlers
// registered by the DSM agents must be non-blocking (they run inside the
// event loop).
#pragma once

#include <cstdint>
#include <vector>

#include "src/net/hockney.h"
#include "src/net/transport.h"
#include "src/sim/kernel.h"
#include "src/util/bytes.h"

namespace hmdsm::net {

/// The simulated network fabric. One instance per cluster.
class Network final : public Transport {
 public:
  Network(sim::Kernel& kernel, HockneyModel model, std::size_t node_count,
          bool model_tx_occupancy = true)
      : Transport(node_count),
        kernel_(kernel),
        model_(model),
        tx_free_(node_count, 0),
        model_tx_occupancy_(model_tx_occupancy) {}

  const HockneyModel& model() const { return model_; }

  /// Sends a message. An isolated message is delivered after the Hockney
  /// latency t(m) = t0 + m/r∞. Under load, the sender's NIC serializes
  /// transmissions: each message occupies the sender for its m/r∞ term, so
  /// back-to-back sends (e.g., one home answering P fault-ins, a barrier
  /// release fan-out) queue behind each other — the contention the paper's
  /// testbed would see on Fast Ethernet. Self-sends are free and only
  /// asynchronous.
  void Send(NodeId src, NodeId dst, stats::MsgCat cat,
            Buf payload) override;

  /// Virtual time.
  sim::Time Now() const override { return kernel_.now(); }

  /// Total messages delivered so far (self-sends excluded).
  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  /// Schedules `packet`'s receive step at virtual time `at`.
  void ScheduleReceive(sim::Time at, Packet&& packet);

  sim::Kernel& kernel_;
  HockneyModel model_;
  std::vector<sim::Time> tx_free_;  // per-node NIC transmit availability
  bool model_tx_occupancy_;
  std::uint64_t packets_sent_ = 0;
};

}  // namespace hmdsm::net
