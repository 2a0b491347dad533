// Layer drives: isolated, plainly timed calls into the public functions of
// proto, dsm, netio and runtime, sized from one workload's own traffic.
//
// The mesh run gives each layer's counters but not its per-call cost; these
// drives supply it. They run in the parent process after every mesh round
// (the Channel drive starts a thread, and the rounds fork), so nothing here
// can perturb a measured window.
#pragma once

#include <cstdint>

#include "src/stats/msgcat.h"

namespace perfbench {

/// The measured window's protocol traffic: messages and wire bytes (payload
/// plus the transport's fixed header) per message category.
struct MsgMix {
  double messages[hmdsm::stats::kNumMsgCats] = {};
  double bytes[hmdsm::stats::kNumMsgCats] = {};
};

struct DriveResult {
  double proto_encode_ns = 0;  // per message, weighted over the mix
  double proto_decode_ns = 0;
  double frame_encode_ns = 0;  // netio data frame around each message
  double frame_decode_ns = 0;
  double diff_create_ns = 0;   // dsm::Diff at the object size / dirty bytes
  double diff_apply_ns = 0;
  double delta_encode_ns = 0;  // DeltaCache probe + diff + cache update
  double handoff_p50_ns = 0;   // runtime::Channel Push -> parked WaitPop
  double handoff_p99_ns = 0;
  std::uint64_t handoff_samples = 0;
};

/// `object_bytes` and `dirty_bytes` are the workload's object size and the
/// bytes one write changes.
DriveResult RunDrives(const MsgMix& mix, std::uint32_t object_bytes,
                      std::uint32_t dirty_bytes);

}  // namespace perfbench
