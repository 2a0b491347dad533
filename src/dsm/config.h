// DSM engine configuration.
#pragma once

#include <string>

#include "src/core/policy.h"

namespace hmdsm::dsm {

/// New-home notification mechanism (paper Section 3.2).
enum class NotifyMechanism {
  /// The obsolete home replies with the believed current home; the
  /// requester retries. Chains accumulate (the paper's default and the one
  /// the adaptive protocol's R feedback is defined on).
  kForwardingPointer,
  /// Migrations are posted to a designated manager node (the object's
  /// initial home); an obsolete home tells requesters to ask the manager.
  kHomeManager,
  /// The new location is broadcast to all nodes on migration; forwarding
  /// pointers remain as a fallback for requests racing the broadcast.
  kBroadcast,
};

std::string NotifyMechanismName(NotifyMechanism m);

struct DsmConfig {
  /// Migration policy spec: "NoHM", "FT<k>", "AT", "MH".
  std::string policy = "AT";

  /// Parameters for the adaptive policy. `half_peak_bytes` is overwritten
  /// from the network model when the cluster is built (so α always matches
  /// the simulated interconnect) unless `pin_half_peak` is set.
  core::AdaptiveParams adaptive;
  bool pin_half_peak = false;

  NotifyMechanism notify = NotifyMechanism::kForwardingPointer;

  /// Forwarding-pointer chain compression: after a fault-in that was
  /// redirected two or more times, the requester posts the discovered home
  /// location back to the first (stalest) chain member it visited, so the
  /// next walker from that direction takes one hop. One small notify
  /// message per multi-hop walk. The paper's protocol does NOT compress —
  /// its R feedback is defined on accumulated redirections — so this
  /// defaults off; see bench/ablation_compression.
  bool compress_chains = false;

  /// Piggyback diffs on release/barrier messages when the dirty object's
  /// home is the sync manager node (paper Section 5.2).
  bool piggyback_diffs = true;

  /// Write-through mode: emulates the sequential-consistency-style
  /// protocols the paper's introduction contrasts LRC against [Li & Hudak].
  /// Every non-home write is flushed to the home immediately (and
  /// acknowledged before the writer proceeds) and non-home copies are
  /// never cached across accesses, so every access communicates — the
  /// "excessive data communication" that motivated relaxed consistency.
  bool write_through = false;

  /// Guard against unbounded redirect chains (indicates a protocol bug).
  std::uint32_t max_redirect_hops = 4096;
};

inline std::string NotifyMechanismName(NotifyMechanism m) {
  switch (m) {
    case NotifyMechanism::kForwardingPointer: return "forwarding-pointer";
    case NotifyMechanism::kHomeManager: return "home-manager";
    case NotifyMechanism::kBroadcast: return "broadcast";
  }
  return "?";
}

}  // namespace hmdsm::dsm
