// Wire frames for the multi-process socket transport, and the one owner of
// every byte layout on a netio stream.
//
// Every netio byte stream — a TCP link's reactor reads and writes, a shared-
// memory ring, the blocking handshake — carries the same records:
//
//     [u32 length][frame]        (little-endian, 0 < length <= kMaxFrameBytes)
//
// RecordHeader() encodes the length prefix, AppendWireImage() lays queued
// frames out as one record (coalescing a backlog into a Batch), and
// RecordAssembler reassembles records from any byte source. frame[0] is the
// FrameType. Data frames carry one serialized DSM protocol message (exactly
// the bytes the in-process transports deliver); control frames carry the
// mesh handshake and the coordinator's control-plane: remote thread
// start/completion and the lead's rounds (distributed quiescence probes,
// stats gather and live polls, stats reset, and the shutdown barrier).
//
// Peer input is untrusted: every decoder here returns false with a
// diagnostic on truncated, oversized, out-of-range, or trailing-garbage
// input, and the record assembler enforces the maximum frame length before
// allocating. A malformed frame tears the connection down loudly — it
// never becomes UB or an unbounded allocation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/transport.h"
#include "src/stats/stats.h"
#include "src/util/bufpool.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace hmdsm::netio {

/// Bumped whenever any frame layout changes; the handshake rejects peers
/// speaking a different version. v2: Batch frames (writer-side coalescing
/// of queued small frames into one wire write). v3: latency histograms in
/// the recorder serialization plus the StatsPoll live-metrics frames.
/// v4: migration decision ledger + windowed time-series samples in the
/// recorder serialization (recorder serde v3). v5: multi-rank hosting —
/// one connection per *process* pair (Hello.node is the dialing process's
/// primary rank) and Hello carries ranks_per_proc so a mesh with
/// inconsistent process shapes refuses to form. v6: Heartbeat/HeartbeatAck
/// link-liveness frames exchanged per process pair on the reactor's timer.
/// v7: wire delta encoding (Delta frames) and shared-memory transport
/// negotiation (segment name + host identity in the handshake); the
/// recorder serialization also grew new event counters. v8: wire deltas
/// are unconditional, so Hello/HelloAck drop the v7 feature-flags word —
/// a link rides shm exactly when the peer names a segment and reports the
/// same host. v9: the five lead request/reply pairs (quiesce probe, stats
/// request, stats reset, shutdown, stats poll) collapse into one
/// Round/RoundReply pair keyed by a sequence number and an op.
constexpr std::uint32_t kProtocolVersion = 9;

/// Frames larger than this are rejected before allocation. Generous: the
/// largest legitimate frame is an object reply for the biggest shared
/// object plus fixed headers.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,      // dialer -> listener: version, rank, cluster size
  kHelloAck,       // listener -> dialer: version, rank
  kData,           // one DSM protocol message
  kStartThread,    // lead -> host: run spawned thread `seq` now
  kThreadDone,     // host -> lead: thread `seq` finished (error + result)
  kRound,          // lead -> all: run control round `seq` (a RoundOp)
  kRoundReply,     // process -> lead: its answer to round `seq`
  kShutdownDone,   // lead -> all: shutdown round answered — safe to close
  kBatch,          // several coalesced frames in one wire write
  kHeartbeat,      // either direction: link-liveness probe `seq`
  kHeartbeatAck,   // echo of a Heartbeat: same seq + sender's send stamp
  kDelta,          // one DSM message, diff-encoded against the last
                   // transmitted version of its object (protocol v7)
};

/// Peeks the type byte; kData-vs-control routing in the reader loop.
inline bool PeekType(ByteSpan frame, FrameType* out) {
  if (frame.empty()) return false;
  *out = static_cast<FrameType>(frame[0]);
  return *out >= FrameType::kHello && *out <= FrameType::kDelta;
}

struct HelloFrame {
  std::uint32_t version = kProtocolVersion;
  /// The dialing process's primary (lowest hosted) rank.
  net::NodeId node = 0;
  std::uint32_t node_count = 0;
  /// Ranks hosted per process; every process in a mesh must agree (the
  /// connection-per-process-pair topology is keyed on it).
  std::uint32_t ranks_per_proc = 1;
  /// Identity of the machine this process runs on (hostname + boot id
  /// hash); the shared-memory transport only forms between processes that
  /// report the same value.
  std::uint64_t host_id = 0;
  /// Name of this process's inbound shared-memory segment (empty when shm
  /// is off or segment creation failed).
  std::string shm_name;
};

struct HelloAckFrame {
  std::uint32_t version = kProtocolVersion;
  net::NodeId node = 0;
  std::uint64_t host_id = 0;
  std::string shm_name;
};

struct DataFrame {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  stats::MsgCat cat = stats::MsgCat::kObj;
  /// With the Buf-decode overload this is a zero-copy view of the wire
  /// frame the message arrived in; with the span overload it owns a copy.
  Buf payload;
};

/// A data frame whose payload is dsm::Diff-encoded against the last
/// version of object `obj` this link transmitted (protocol v7). The
/// receiver holds that version in its mirror DeltaCache at sequence
/// `base_seq`; applying `diff` reconstructs the payload bit-exactly and
/// advances the entry to base_seq + 1. A delta frame only ever replaces a
/// kData frame — the sender falls back to a full frame whenever the cache
/// misses, the size changed, or the diff is not actually smaller — so a
/// receiver can treat any base mismatch as a protocol violation.
struct DeltaFrame {
  net::NodeId src = 0;
  net::NodeId dst = 0;
  stats::MsgCat cat = stats::MsgCat::kObj;
  std::uint64_t obj = 0;       // DeltaCache key (ObjectId.value)
  std::uint32_t base_seq = 0;  // cache sequence the diff applies on top of
  /// dsm::Diff encoding of (cached payload -> new payload). The Buf decode
  /// overload aliases the wire frame; runs are bounds-validated before the
  /// decoder accepts the frame.
  Buf diff;
};

/// Encoded bytes of a kData / kDelta frame beyond its payload / diff: the
/// type byte, src, dst, cat and the u32 length, plus obj and base_seq for
/// a delta.
constexpr std::size_t kDataFrameOverhead = 14;
constexpr std::size_t kDeltaFrameOverhead = 26;

struct StartThreadFrame {
  std::uint64_t seq = 0;
};

struct ThreadDoneFrame {
  std::uint64_t seq = 0;
  std::string error;  // empty = completed normally
  Bytes result;       // Env::PublishResult payload (may be empty)
};

/// What a lead round asks of every other process. Each op has one
/// hosting-side handler; every reply carries the process's activity
/// counters, and a stats reply adds its recorder.
enum class RoundOp : std::uint8_t {
  kQuiesce,   // reply with the activity counters at probe time
  kStats,     // + clock and recorder (end-of-window gather and live poll)
  kReset,     // zero the recorder and mark the epoch, then reply
  kShutdown,  // run over; reply once local threads are done
};
constexpr std::uint8_t kNumRoundOps = 4;

struct RoundFrame {
  RoundOp op = RoundOp::kQuiesce;
  std::uint64_t seq = 0;
  bool abort = false;  // kShutdown: the lead is unwinding an error
};

/// One process's activity counters. The cluster is quiescent when, across
/// two consecutive probe rounds, every process reports identical counters
/// with sum(wire_sent) == sum(wire_received) and enqueued == dispatched
/// everywhere (counters are monotone, so any activity between the two
/// probe rounds perturbs at least one of them).
struct Activity {
  std::uint64_t wire_sent = 0;      // data frames handed to the wire
  std::uint64_t wire_received = 0;  // data frames pushed into the mailbox
  std::uint64_t enqueued = 0;       // local mailbox pushes (self-sends too)
  std::uint64_t dispatched = 0;     // local handlers completed
  bool operator==(const Activity&) const = default;
};

struct RoundReplyFrame {
  RoundOp op = RoundOp::kQuiesce;
  std::uint64_t seq = 0;
  Activity activity;
  /// kStats only (absent from the wire otherwise): the replying process's
  /// transport clock (ns since its epoch) at snapshot time — consecutive
  /// polls give the lead a per-process ops/s rate — and the merged
  /// recorder of every rank it hosts.
  std::uint64_t now_ns = 0;
  stats::Recorder recorder;
};

/// Without this second phase a fast rank could close its sockets before a
/// slow rank had even *received* the shutdown round — the slow rank's
/// reader would see the EOF as a died peer. Closing only after every rank
/// answered means every EOF lands on a rank that already knows the run is
/// over.
struct ShutdownDoneFrame {};

/// Link-liveness probe, exchanged once per process pair on the reactor's
/// periodic timer. The ack echoes both fields, so the prober computes the
/// round-trip from its own clock without trusting the peer's — a hostile
/// or skewed send_ns in an unsolicited ack cannot poison the histogram
/// beyond its own link's numbers.
struct HeartbeatFrame {
  std::uint64_t seq = 0;
  /// Prober's transport clock (ns since its epoch) at send time.
  std::uint64_t send_ns = 0;
};

struct HeartbeatAckFrame {
  std::uint64_t seq = 0;
  std::uint64_t send_ns = 0;  // echoed from the probe
};

Bytes Encode(const HelloFrame&);
Bytes Encode(const HelloAckFrame&);
Bytes Encode(const DataFrame&);
Bytes Encode(const DeltaFrame&);
Bytes Encode(const StartThreadFrame&);
Bytes Encode(const ThreadDoneFrame&);
Bytes Encode(const RoundFrame&);
Bytes Encode(const RoundReplyFrame&);
Bytes Encode(const ShutdownDoneFrame&);
Bytes Encode(const HeartbeatFrame&);
Bytes Encode(const HeartbeatAckFrame&);

/// Bytes of a record's length prefix.
constexpr std::size_t kRecordHeaderBytes = 4;

/// The length prefix of a record carrying a `frame_bytes`-byte frame.
std::array<Byte, kRecordHeaderBytes> RecordHeader(std::size_t frame_bytes);

/// Lays already-encoded `frames` (at least one) out as the wire image of one
/// record, appended to `segs` as scatter segments in write order. A lone
/// frame is a plain record; a backlog coalesces into one Batch record, so
/// many small frames cost one wire write instead of one each:
///
///     [u32 len][kBatch][u32 count] then per frame [u32 len][frame]
///
/// Only the headers are fresh bytes — the frames are moved in, so batching
/// never copies a payload. Inner frames keep their own type byte; a Batch
/// may not nest.
void AppendWireImage(std::vector<Bytes> frames, std::vector<Bytes>* segs);

/// Defensively splits a Batch frame into aliased views of `frame` (zero
/// copy — each inner frame Buf shares the batch buffer). Rejects: count of
/// 0 or 1 (the writer never coalesces fewer than two frames), a count that
/// cannot fit in the remaining bytes (pre-allocation bound), truncated
/// inner frames, nested batches, and trailing garbage.
bool TryDecodeBatch(const Buf& frame, std::vector<Buf>* out,
                    std::string* error);

/// Reassembles records from a byte stream that arrives in arbitrary pieces.
/// The owner copies stream bytes straight into Window() — the rest of the
/// length header, then a pooled buffer of exactly the frame's size — and
/// reports each copy with Commit(). The length is checked once, before
/// anything is allocated; a completed frame comes back as a Buf whose
/// storage returns to the pool when its last view drops, so receiving
/// neither copies a frame again nor allocates once the pool is warm.
class RecordAssembler {
 public:
  enum class Step {
    kMore,       // the record is not complete yet
    kFrame,      // a frame is complete
    kBadLength,  // length 0 or above kMaxFrameBytes; the stream is unframed
  };

  explicit RecordAssembler(BufferPool* pool) : pool_(pool) {}

  /// Where the next stream bytes go. Never empty until a Commit returned
  /// kBadLength, after which nothing more can be read from the stream.
  MutByteSpan Window() {
    if (box_ == nullptr)
      return MutByteSpan(head_).subspan(head_got_);
    return MutByteSpan(*box_).subspan(got_);
  }

  /// Accounts `n` bytes just copied into Window(). kFrame moves the frame
  /// into `*frame`; kBadLength sets `*error` and is final (failed()).
  Step Commit(std::size_t n, Buf* frame, std::string* error);

  /// True between records: an end of stream here is a clean close.
  bool idle() const { return head_got_ == 0; }
  /// True while the length header is still incomplete.
  bool in_header() const { return box_ == nullptr; }
  /// A record length was rejected; no further record can be framed.
  bool failed() const { return failed_; }

 private:
  BufferPool* pool_;
  Byte head_[kRecordHeaderBytes] = {};
  std::size_t head_got_ = 0;  // == kRecordHeaderBytes while filling box_
  BufferPool::Box box_;       // null until the header is complete
  std::size_t got_ = 0;
  bool failed_ = false;
};

/// Reads the version word at the head of a Hello or HelloAck of type
/// `expected` without decoding the rest. A peer speaking another version
/// may lay out the remaining fields differently, so the handshake checks
/// this first and refuses an old peer by version, not as a malformed frame.
bool PeekVersion(ByteSpan frame, FrameType expected, std::uint32_t* version);

// Defensive decoders: false + diagnostic on any malformed input.
bool TryDecode(ByteSpan frame, HelloFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, HelloAckFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, DataFrame* out, std::string* error);
/// Zero-copy variant: `out->payload` aliases `frame` (no byte copy). The
/// socket reader uses this so a received payload is never re-copied between
/// the wire and the mailbox.
bool TryDecode(const Buf& frame, DataFrame* out, std::string* error);
/// Delta decoders validate the diff's internal structure (bounded run
/// count, ordered in-bounds runs) before accepting the frame, so a hostile
/// diff is rejected here, not discovered during apply.
bool TryDecode(ByteSpan frame, DeltaFrame* out, std::string* error);
/// Zero-copy variant: `out->diff` aliases `frame`.
bool TryDecode(const Buf& frame, DeltaFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, StartThreadFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ThreadDoneFrame* out, std::string* error);
/// Round decoders reject an out-of-range op; a reply carries its clock and
/// recorder exactly when the op is kStats (a missing one is truncation,
/// an extra one trailing garbage).
bool TryDecode(ByteSpan frame, RoundFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, RoundReplyFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, ShutdownDoneFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, HeartbeatFrame* out, std::string* error);
bool TryDecode(ByteSpan frame, HeartbeatAckFrame* out, std::string* error);

}  // namespace hmdsm::netio
