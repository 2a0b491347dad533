#include "src/netio/frame.h"

#include <utility>

namespace hmdsm::netio {

namespace {

Writer Begin(FrameType type) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  return w;
}

/// Shared defensive-decode scaffold: checks the type byte, runs `body`
/// against a Reader over the rest, converts truncation/range CheckErrors
/// into a false return, and rejects trailing bytes. Decoders stay simple
/// field readers; nothing a peer sends can unwind past here.
template <typename Fn>
bool Defensive(ByteSpan frame, FrameType expected, std::string* error,
               Fn&& body) {
  FrameType type;
  if (!PeekType(frame, &type) || type != expected) {
    if (error != nullptr) {
      *error = "bad frame type (expected " +
               std::to_string(static_cast<int>(expected)) + ")";
    }
    return false;
  }
  try {
    Reader r(frame.subspan(1));
    body(r);
    if (!r.done()) {
      if (error != nullptr) {
        *error = "trailing garbage: " + std::to_string(r.remaining()) +
                 " bytes after the frame";
      }
      return false;
    }
    return true;
  } catch (const CheckError& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

}  // namespace

bool PeekVersion(ByteSpan frame, FrameType expected, std::uint32_t* version) {
  FrameType type;
  if (frame.size() < 5 || !PeekType(frame, &type) || type != expected)
    return false;
  *version = Reader(frame.subspan(1)).u32();
  return true;
}

Bytes Encode(const HelloFrame& f) {
  Writer w = Begin(FrameType::kHello);
  w.u32(f.version);
  w.u32(f.node);
  w.u32(f.node_count);
  w.u32(f.ranks_per_proc);
  w.u64(f.host_id);
  w.str(f.shm_name);
  return w.take();
}

bool TryDecode(ByteSpan frame, HelloFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHello, error, [&](Reader& r) {
    out->version = r.u32();
    out->node = r.u32();
    out->node_count = r.u32();
    out->ranks_per_proc = r.u32();
    out->host_id = r.u64();
    out->shm_name = r.str();
  });
}

Bytes Encode(const HelloAckFrame& f) {
  Writer w = Begin(FrameType::kHelloAck);
  w.u32(f.version);
  w.u32(f.node);
  w.u64(f.host_id);
  w.str(f.shm_name);
  return w.take();
}

bool TryDecode(ByteSpan frame, HelloAckFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHelloAck, error, [&](Reader& r) {
    out->version = r.u32();
    out->node = r.u32();
    out->host_id = r.u64();
    out->shm_name = r.str();
  });
}

Bytes Encode(const DataFrame& f) {
  Writer w = Begin(FrameType::kData);
  w.u32(f.src);
  w.u32(f.dst);
  w.u8(static_cast<std::uint8_t>(f.cat));
  w.bytes(f.payload);
  return w.take();
}

namespace {

/// Shared by both DataFrame decoders: everything but the payload
/// materialization (owned copy vs aliased view), so the span and Buf
/// overloads cannot drift apart. Returns the payload span inside the frame.
ByteSpan DecodeDataHeader(Reader& r, DataFrame* out) {
  out->src = r.u32();
  out->dst = r.u32();
  const std::uint8_t cat = r.u8();
  HMDSM_CHECK_MSG(cat < stats::kNumMsgCats,
                  "message category " << static_cast<int>(cat)
                                      << " out of range");
  out->cat = static_cast<stats::MsgCat>(cat);
  const std::uint32_t len = r.u32();
  return r.raw(len);  // bounds-checked by the Reader
}

}  // namespace

bool TryDecode(ByteSpan frame, DataFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kData, error, [&](Reader& r) {
    out->payload = Buf::Copy(DecodeDataHeader(r, out));
  });
}

bool TryDecode(const Buf& frame, DataFrame* out, std::string* error) {
  const ByteSpan span = frame.span();
  return Defensive(span, FrameType::kData, error, [&](Reader& r) {
    const ByteSpan payload = DecodeDataHeader(r, out);
    out->payload = frame.View(
        static_cast<std::size_t>(payload.data() - span.data()),
        payload.size());
  });
}

Bytes Encode(const DeltaFrame& f) {
  Writer w = Begin(FrameType::kDelta);
  w.u32(f.src);
  w.u32(f.dst);
  w.u8(static_cast<std::uint8_t>(f.cat));
  w.u64(f.obj);
  w.u32(f.base_seq);
  w.bytes(f.diff);
  return w.take();
}

namespace {

/// Structural validation of an embedded dsm::Diff: bounded run count,
/// ordered in-bounds runs, no truncation, no trailing bytes. Throws
/// CheckError (converted to a false decode by Defensive) so a hostile diff
/// is rejected at the frame boundary, before any apply touches it.
void ValidateDiffRuns(ByteSpan diff) {
  Reader r(diff);
  const std::uint32_t size = r.u32();
  const std::uint32_t run_count = r.u32();
  // Each run costs at least 8 header bytes: a count the remaining bytes
  // cannot hold is hostile, reject before looping.
  HMDSM_CHECK_MSG(run_count <= r.remaining() / 8,
                  "delta run count " << run_count << " cannot fit in "
                                     << r.remaining() << " bytes");
  std::size_t prev_end = 0;
  for (std::uint32_t k = 0; k < run_count; ++k) {
    const std::uint32_t offset = r.u32();
    const std::uint32_t length = r.u32();
    HMDSM_CHECK_MSG(offset >= prev_end, "delta runs out of order");
    HMDSM_CHECK_MSG(static_cast<std::size_t>(offset) + length <= size,
                    "delta run exceeds object bounds");
    r.raw(length);  // truncation-checked by the Reader
    prev_end = offset + length;
  }
  HMDSM_CHECK_MSG(r.done(), "trailing bytes after delta runs");
}

/// Shared by both DeltaFrame decoders (same split as DecodeDataHeader).
/// Returns the validated diff span inside the frame.
ByteSpan DecodeDeltaHeader(Reader& r, DeltaFrame* out) {
  out->src = r.u32();
  out->dst = r.u32();
  const std::uint8_t cat = r.u8();
  HMDSM_CHECK_MSG(cat < stats::kNumMsgCats,
                  "message category " << static_cast<int>(cat)
                                      << " out of range");
  out->cat = static_cast<stats::MsgCat>(cat);
  out->obj = r.u64();
  out->base_seq = r.u32();
  const std::uint32_t len = r.u32();
  const ByteSpan diff = r.raw(len);  // bounds-checked by the Reader
  ValidateDiffRuns(diff);
  return diff;
}

}  // namespace

bool TryDecode(ByteSpan frame, DeltaFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kDelta, error, [&](Reader& r) {
    out->diff = Buf::Copy(DecodeDeltaHeader(r, out));
  });
}

bool TryDecode(const Buf& frame, DeltaFrame* out, std::string* error) {
  const ByteSpan span = frame.span();
  return Defensive(span, FrameType::kDelta, error, [&](Reader& r) {
    const ByteSpan diff = DecodeDeltaHeader(r, out);
    out->diff = frame.View(
        static_cast<std::size_t>(diff.data() - span.data()), diff.size());
  });
}

std::array<Byte, kRecordHeaderBytes> RecordHeader(std::size_t frame_bytes) {
  const auto v = static_cast<std::uint32_t>(frame_bytes);
  std::array<Byte, kRecordHeaderBytes> h;
  for (std::size_t i = 0; i < h.size(); ++i)
    h[i] = static_cast<Byte>(v >> (8 * i));
  return h;
}

void AppendWireImage(std::vector<Bytes> frames, std::vector<Bytes>* segs) {
  HMDSM_CHECK(!frames.empty());
  auto prefix = [](std::size_t n) {
    const auto h = RecordHeader(n);
    return Bytes(h.begin(), h.end());
  };
  if (frames.size() == 1) {
    segs->push_back(prefix(frames.front().size()));
    segs->push_back(std::move(frames.front()));
    return;
  }
  std::size_t inner = 1 + 4;  // type byte + count
  for (const Bytes& f : frames) inner += kRecordHeaderBytes + f.size();
  Writer head(prefix(inner));
  head.u8(static_cast<std::uint8_t>(FrameType::kBatch));
  head.u32(static_cast<std::uint32_t>(frames.size()));
  segs->reserve(segs->size() + 1 + 2 * frames.size());
  segs->push_back(head.take());
  for (Bytes& f : frames) {
    segs->push_back(prefix(f.size()));
    segs->push_back(std::move(f));
  }
}

RecordAssembler::Step RecordAssembler::Commit(std::size_t n, Buf* frame,
                                              std::string* error) {
  if (box_ == nullptr) {
    head_got_ += n;
    if (head_got_ < kRecordHeaderBytes) return Step::kMore;
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < kRecordHeaderBytes; ++i)
      len |= static_cast<std::uint32_t>(head_[i]) << (8 * i);
    if (len == 0 || len > kMaxFrameBytes) {
      failed_ = true;
      *error = "frame length " + std::to_string(len) + " outside (0, " +
               std::to_string(kMaxFrameBytes) + "]";
      return Step::kBadLength;
    }
    box_ = pool_->Acquire(len);
    got_ = 0;
    return Step::kMore;
  }
  got_ += n;
  if (got_ < box_->size()) return Step::kMore;
  head_got_ = 0;
  *frame = pool_->Wrap(std::move(box_));
  return Step::kFrame;
}

bool TryDecodeBatch(const Buf& frame, std::vector<Buf>* out,
                    std::string* error) {
  const ByteSpan span = frame.span();
  return Defensive(span, FrameType::kBatch, error, [&](Reader& r) {
    const std::uint32_t count = r.u32();
    // Each inner frame costs at least its length prefix plus a type byte,
    // so a count the remaining bytes cannot hold is hostile — reject it
    // before reserving anything.
    HMDSM_CHECK_MSG(count >= 2, "batch of " << count << " frames");
    HMDSM_CHECK_MSG(count <= r.remaining() / 5,
                    "batch count " << count << " cannot fit in "
                                   << r.remaining() << " bytes");
    out->clear();
    out->reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t len = r.u32();
      const ByteSpan inner = r.raw(len);  // bounds-checked by the Reader
      FrameType type;
      HMDSM_CHECK_MSG(PeekType(inner, &type),
                      "batched frame " << i << " has no valid type");
      HMDSM_CHECK_MSG(type != FrameType::kBatch, "nested batch frame");
      out->push_back(frame.View(
          static_cast<std::size_t>(inner.data() - span.data()), len));
    }
  });
}

Bytes Encode(const StartThreadFrame& f) {
  Writer w = Begin(FrameType::kStartThread);
  w.u64(f.seq);
  return w.take();
}

bool TryDecode(ByteSpan frame, StartThreadFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kStartThread, error,
                   [&](Reader& r) { out->seq = r.u64(); });
}

Bytes Encode(const ThreadDoneFrame& f) {
  Writer w = Begin(FrameType::kThreadDone);
  w.u64(f.seq);
  w.str(f.error);
  w.bytes(f.result);
  return w.take();
}

bool TryDecode(ByteSpan frame, ThreadDoneFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kThreadDone, error, [&](Reader& r) {
    out->seq = r.u64();
    out->error = r.str();
    out->result = r.bytes();
  });
}

namespace {

RoundOp ReadRoundOp(Reader& r) {
  const std::uint8_t op = r.u8();
  HMDSM_CHECK_MSG(op < kNumRoundOps,
                  "round op " << static_cast<int>(op) << " out of range");
  return static_cast<RoundOp>(op);
}

}  // namespace

Bytes Encode(const RoundFrame& f) {
  Writer w = Begin(FrameType::kRound);
  w.u8(static_cast<std::uint8_t>(f.op));
  w.u64(f.seq);
  w.u8(f.abort ? 1 : 0);
  return w.take();
}

bool TryDecode(ByteSpan frame, RoundFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kRound, error, [&](Reader& r) {
    out->op = ReadRoundOp(r);
    out->seq = r.u64();
    out->abort = r.u8() != 0;
  });
}

Bytes Encode(const RoundReplyFrame& f) {
  Writer w = Begin(FrameType::kRoundReply);
  w.u8(static_cast<std::uint8_t>(f.op));
  w.u64(f.seq);
  w.u64(f.activity.wire_sent);
  w.u64(f.activity.wire_received);
  w.u64(f.activity.enqueued);
  w.u64(f.activity.dispatched);
  if (f.op == RoundOp::kStats) {
    w.u64(f.now_ns);
    f.recorder.Encode(w);
  }
  return w.take();
}

bool TryDecode(ByteSpan frame, RoundReplyFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kRoundReply, error, [&](Reader& r) {
    *out = RoundReplyFrame{};
    out->op = ReadRoundOp(r);
    out->seq = r.u64();
    out->activity.wire_sent = r.u64();
    out->activity.wire_received = r.u64();
    out->activity.enqueued = r.u64();
    out->activity.dispatched = r.u64();
    if (out->op == RoundOp::kStats) {
      out->now_ns = r.u64();
      out->recorder = stats::Recorder::Decode(r);
    }
  });
}

Bytes Encode(const ShutdownDoneFrame&) {
  return Begin(FrameType::kShutdownDone).take();
}

bool TryDecode(ByteSpan frame, ShutdownDoneFrame* out, std::string* error) {
  (void)out;
  return Defensive(frame, FrameType::kShutdownDone, error, [](Reader&) {});
}

Bytes Encode(const HeartbeatFrame& f) {
  Writer w = Begin(FrameType::kHeartbeat);
  w.u64(f.seq);
  w.u64(f.send_ns);
  return w.take();
}

bool TryDecode(ByteSpan frame, HeartbeatFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHeartbeat, error, [&](Reader& r) {
    out->seq = r.u64();
    out->send_ns = r.u64();
  });
}

Bytes Encode(const HeartbeatAckFrame& f) {
  Writer w = Begin(FrameType::kHeartbeatAck);
  w.u64(f.seq);
  w.u64(f.send_ns);
  return w.take();
}

bool TryDecode(ByteSpan frame, HeartbeatAckFrame* out, std::string* error) {
  return Defensive(frame, FrameType::kHeartbeatAck, error, [&](Reader& r) {
    out->seq = r.u64();
    out->send_ns = r.u64();
  });
}

}  // namespace hmdsm::netio
