// netio::ShmTransport — a zero-syscall same-host data path for co-located
// mesh processes (the other half of ROADMAP item 3).
//
// Every process that enables --shm creates ONE POSIX shared-memory segment
// at transport start: its *inbound* segment, holding one SPSC byte-stream
// ring per potential writer process plus futex doorbell words. The segment
// name and a host-identity hash travel in the Hello/HelloAck handshake;
// when both ends of a link enable shm and report the same host, each side
// maps the other's segment and from then on sends every DATA frame for
// that link through the peer's ring — no TCP, no syscalls in steady state.
// Control frames (coordinator plane, heartbeats) stay on the TCP link, so
// the liveness plane still measures the real network path.
//
// Ring model: a pipe, not a slot array. Each ring is a fixed-capacity byte
// stream carrying frame.h's records, copied in and out with wraparound.
// Streaming means a frame larger than the ring still flows (writer fills,
// reader drains, repeat) — there is no oversize fallback path that could
// reorder traffic, which is what makes the ring the *single* FIFO data
// channel per direction and keeps the wire delta caches in lockstep.
//
// Synchronization: head/tail are release/acquire atomics in the mapped
// region — they carry the happens-before for the plain-byte copies, so the
// protocol is correct independent of the futexes. ThreadSanitizer cannot
// check that argument: writer and reader reach the cursors through two
// different mappings of the segment, so TSan sees no happens-before
// through a ring — it may report ring-ordered accesses as races, and it
// cannot catch a real race whose only ordering is the ring. The
// doorbell and the futexes are pure sleep/wake. A writer bumps the
// segment doorbell after publishing. A reader that finds every ring
// drained first spins on the doorbell for the one SpinThenPark window
// (util/spin.h) and re-drains the moment it moves; only then does it
// advertise itself in reader_waiting, re-check the doorbell through
// FUTEX_WAIT's compare, and sleep. A writer issues FUTEX_WAKE only when
// reader_waiting is set, so a spinning reader costs its writers no
// syscall, and the spin adds no lost-wakeup case: it ends before the
// advertise-then-re-check sequence starts. The full-ring path mirrors the
// park with a per-ring space doorbell. All waits are timeout-bounded so
// teardown can never hang on a lost wakeup or a killed peer.
//
// Single-writer contract: WriteFrame(peer, ...) must be externally
// serialized per peer (SocketTransport calls it under the link mutex that
// already orders that link's sends). The reader side is one thread owned by
// this object.
//
// The reader sends too: SocketTransport runs a frame's protocol handler on
// it when the destination rank is idle (inline dispatch), and a handler
// sends replies. Two readers could then each wait for space in the other's
// full ring, so the reader never parks on a full outbound ring or on a link
// mutex: while it waits (WriteFrame, LockDraining) it drains its own
// inbound rings, handing those frames over `nested` — queued for the
// dispatchers, never dispatched inline. Tests: netio_socket_transport_test
// (InlineDispatch.Echoes*).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/frame.h"
#include "src/util/bufpool.h"
#include "src/util/bytes.h"
#include "src/util/spin.h"

namespace hmdsm::netio {

/// Capacity of each inbound ring. A full ring blocks the writer briefly
/// (the reader drains continuously), it never drops or reorders. The
/// record assembler (frame.h) bounds record lengths like on a TCP link.
constexpr std::size_t kShmRingBytes = 256 * 1024;

struct ShmTransportOptions {
  std::size_t group_count = 0;  // processes in the mesh
  std::size_t self_group = 0;   // this process's index
};

class ShmTransport {
 public:
  /// Creates this process's inbound segment. Null + diagnostic when the
  /// host cannot (shm_open/mmap failure) — the caller degrades to TCP.
  static std::unique_ptr<ShmTransport> Create(
      const ShmTransportOptions& options, std::string* error);

  ~ShmTransport();
  ShmTransport(const ShmTransport&) = delete;
  ShmTransport& operator=(const ShmTransport&) = delete;

  /// The /dev/shm name peers pass to AttachPeer, advertised in the Hello.
  const std::string& segment_name() const { return name_; }

  /// Hash of this machine's identity (hostname + boot id). Two processes
  /// negotiate shm only when their values match — equal hostnames on
  /// different machines must not try to cross-mmap.
  static std::uint64_t HostIdentity();

  /// Maps `peer_group`'s inbound segment for writes toward it. Validates
  /// the name shape, the segment magic, and the geometry before trusting
  /// anything (the name arrived over the wire). False + diagnostic on any
  /// mismatch; the link then stays on TCP.
  bool AttachPeer(std::size_t peer_group, const std::string& name,
                  std::string* error);
  bool attached(std::size_t peer_group) const;

  /// Blocking FIFO write of one frame toward `peer_group` (which must be
  /// attached). Returns false only when this transport is stopping or the
  /// peer's segment is closed — mid-run it always completes. Must be
  /// serialized per peer by the caller (see the single-writer contract).
  /// On the reader thread a full ring is waited out by draining the
  /// inbound rings (nested), never by parking alone.
  bool WriteFrame(std::size_t peer_group, ByteSpan frame);

  /// Locks `mu`. On this transport's reader thread it try-locks, draining
  /// the inbound rings (nested) between attempts: the holder may be a
  /// writer waiting for ring space that only a peer reader frees, and that
  /// peer reader may be waiting for this one.
  void LockDraining(std::mutex& mu);

  /// One decoded inbound frame: the writer process's group and the frame
  /// bytes (storage recycled through `pool`). `nested` is true when the
  /// reader drained it while waiting inside one of its own sends: the
  /// handler must then only queue the frame, never run protocol code.
  using FrameHandler =
      std::function<void(std::size_t src_group, Buf frame, bool nested)>;
  /// An unrecoverable ring violation (bad record length), reported once per
  /// ring: the reader stops draining that ring for good. The transport
  /// treats it like a malformed TCP frame: fatal.
  using FatalHandler = std::function<void(const std::string& why)>;
  /// Per-ring drain gate: the reader leaves ring `g`'s bytes in place until
  /// this returns true. SocketTransport gates on handshake completion so a
  /// peer that attaches and writes the instant it sees our HelloAck cannot
  /// have frames processed before our per-link receive state exists.
  using RingGate = std::function<bool(std::size_t src_group)>;

  /// Starts the reader thread draining every attached inbound ring. Call
  /// once, before any peer can be sending (i.e. before the handshake
  /// completes). A null `ready` gate means every ring is always ready.
  void StartReader(FrameHandler on_frame, FatalHandler on_fatal,
                   BufferPool* pool, RingGate ready = nullptr);

  /// Wakes the reader thread (e.g. after a RingGate flips open, so gated
  /// bytes are drained now instead of at the next timeout).
  void KickReader();

  /// How the reader's idle waits ended (spun into new bytes, or parked).
  const SpinTally& reader_spin() const { return reader_spin_; }

  /// The first half of Stop: raises stopping_, marks the segment closed
  /// and kicks every doorbell, so in-flight WriteFrame calls (ours and
  /// peers') unblock and return false. Joins and unmaps nothing, so it is
  /// safe before the caller takes the link locks a blocked writer holds.
  /// Idempotent.
  void Interrupt();

  /// Interrupt, then joins the reader and unmaps both directions.
  /// Idempotent.
  void Stop();

 private:
  struct Mapping {
    void* base = nullptr;
    std::size_t bytes = 0;
    int fd = -1;
  };

  ShmTransport(const ShmTransportOptions& options, std::string name,
               Mapping own);
  void ReaderMain();
  /// Drains whatever is available in ring `g`; true if any byte moved.
  bool DrainRing(std::size_t g);
  /// On the reader thread, outside a nested drain: drains every inbound
  /// ring once with `nested_` set; true if any byte moved. Elsewhere a
  /// no-op returning false.
  bool DrainNested();

  ShmTransportOptions options_;
  std::string name_;
  Mapping own_;                     // this process's inbound segment
  std::vector<Mapping> peer_segs_;  // [g] = peer g's segment (tx direction)
  /// [g] = ring g's record stream; a record may arrive across many drains.
  std::vector<RecordAssembler> rx_;
  std::atomic<bool> stopping_{false};
  SpinTally reader_spin_;
  bool nested_ = false;  // reader thread only: inside DrainNested
  bool reader_started_ = false;
  bool stopped_ = false;
  std::thread reader_;
  FrameHandler on_frame_;
  FatalHandler on_fatal_;
  RingGate ready_;
};

}  // namespace hmdsm::netio
