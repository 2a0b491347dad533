#include "drives.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "latency.h"
#include "src/dsm/diff.h"
#include "src/netio/delta.h"
#include "src/netio/frame.h"
#include "src/net/transport.h"
#include "src/proto/wire.h"
#include "src/runtime/channel.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using namespace hmdsm;

// Each timing runs batches of calls until both floors are met, so one
// estimate covers thousands of calls and several scheduler ticks.
constexpr int kBatch = 256;
constexpr std::int64_t kMinDriveNs = 20'000'000;
constexpr std::uint64_t kMinCalls = 4096;

/// Mean ns per call of `fn()`; `sink` keeps the results observable.
template <typename Fn>
double TimePerCall(Fn&& fn) {
  std::uint64_t calls = 0;
  std::int64_t spent = 0;
  std::uint64_t sink = 0;
  while (spent < kMinDriveNs || calls < kMinCalls) {
    const std::int64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) sink += fn();
    spent += NowNs() - t0;
    calls += kBatch;
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(spent) / static_cast<double>(calls);
}

Bytes Pattern(std::size_t n, std::uint64_t seed) {
  SplitMix64 fill(seed);
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<Byte>(fill.next());
  return out;
}

/// The message that carries category `cat` on the wire, with its opaque
/// byte field sized so the encoded message is `target` bytes where the
/// type allows (sync messages carry their piggybacked diffs that way).
Bytes CarrierMessage(stats::MsgCat cat, std::size_t target) {
  const dsm::ObjectId obj{7};
  const auto fill = [&](std::size_t empty_size) {
    return Pattern(target > empty_size ? target - empty_size : 0, 11);
  };
  switch (cat) {
    case stats::MsgCat::kObj: {
      proto::ObjReply m{obj, {}, 3};
      m.data = fill(proto::Encode(m).size());
      return proto::Encode(m);
    }
    case stats::MsgCat::kMig: {
      proto::MigrateReply m{obj, {}, {}};
      m.data = fill(proto::Encode(m).size());
      return proto::Encode(m);
    }
    case stats::MsgCat::kDiff: {
      proto::DiffMsg m{obj, {}, 5, true, 1};
      m.diff = fill(proto::Encode(m).size());
      return proto::Encode(m);
    }
    case stats::MsgCat::kRedir:
      return proto::Encode(proto::Redirect{obj, 2, false});
    case stats::MsgCat::kSync: {
      proto::LockReleaseMsg m{dsm::LockId{1}, {}};
      const std::size_t empty = proto::Encode(m).size();
      if (target <= empty) return proto::Encode(proto::LockGrantMsg{m.lock});
      m.piggybacked_diffs.emplace_back(obj, Bytes{});
      m.piggybacked_diffs[0].second = fill(proto::Encode(m).size());
      return proto::Encode(m);
    }
    case stats::MsgCat::kNotify:
      return proto::Encode(proto::HomeBroadcastMsg{obj, 2});
    case stats::MsgCat::kInit:
    case stats::MsgCat::kCount: {
      proto::InitObjectMsg m{obj, {}, 1};
      m.data = fill(proto::Encode(m).size());
      return proto::Encode(m);
    }
  }
  return {};
}

/// Per-category timings weighted by the category's share of messages.
struct CodecTimes {
  double proto_encode = 0, proto_decode = 0;
  double frame_encode = 0, frame_decode = 0;
};

CodecTimes TimeCodecs(const MsgMix& mix) {
  CodecTimes out;
  double total = 0;
  for (std::size_t c = 0; c < stats::kNumMsgCats; ++c) {
    const double n = mix.messages[c];
    if (n <= 0) continue;
    const auto cat = static_cast<stats::MsgCat>(c);
    const double wire = mix.bytes[c] / n;
    const double payload = wire - net::Transport::kHeaderBytes;
    const Bytes msg = CarrierMessage(
        cat, payload > 0 ? static_cast<std::size_t>(payload) : 0);
    proto::AnyMsg decoded;
    std::string error;
    HMDSM_CHECK_MSG(proto::TryDecode(msg, &decoded, &error),
                    "drive message does not decode: " << error);

    const double penc = TimePerCall([&] {
      return std::visit([](const auto& m) { return proto::Encode(m).size(); },
                        decoded);
    });
    const double pdec = TimePerCall([&] {
      proto::AnyMsg m;
      return static_cast<std::size_t>(proto::TryDecode(msg, &m, &error));
    });
    const netio::DataFrame frame{1, 0, cat, Buf(Bytes(msg))};
    const Buf encoded(netio::Encode(frame));
    const double fenc = TimePerCall(
        [&] { return netio::Encode(frame).size(); });
    const double fdec = TimePerCall([&] {
      netio::DataFrame f;
      return static_cast<std::size_t>(netio::TryDecode(encoded, &f, &error));
    });
    out.proto_encode += n * penc;
    out.proto_decode += n * pdec;
    out.frame_encode += n * fenc;
    out.frame_decode += n * fdec;
    total += n;
  }
  if (total > 0) {
    out.proto_encode /= total;
    out.proto_decode /= total;
    out.frame_encode /= total;
    out.frame_decode /= total;
  }
  return out;
}

/// A write: the first `dirty` bytes of `base` rewritten for version `v`.
Bytes Dirtied(const Bytes& base, std::uint32_t dirty, std::uint64_t v) {
  Bytes out = base;
  SplitMix64 fill(0xD1FF + v);
  for (std::size_t i = 0; i < dirty && i < out.size(); ++i)
    out[i] = static_cast<Byte>(fill.next());
  return out;
}

/// The sender half of wire delta encoding on one link, as the transport
/// runs it: probe the cache, diff against the cached version, keep the
/// delta only when it is smaller, and update the cache either way.
double TimeDeltaEncode(std::uint32_t object_bytes, std::uint32_t dirty) {
  constexpr std::uint64_t kObjects = 4;
  const Bytes base = Pattern(object_bytes, 3);
  netio::DeltaCache cache;
  std::vector<Bytes> batch(kBatch);
  std::uint64_t calls = 0;
  std::int64_t spent = 0;
  std::uint64_t sink = 0;
  while (spent < kMinDriveNs || calls < kMinCalls) {
    for (int i = 0; i < kBatch; ++i) {
      proto::ObjReply reply{dsm::ObjectId{(calls + i) % kObjects},
                            Dirtied(base, dirty, calls + i), 0};
      batch[i] = proto::Encode(reply);
    }
    const std::int64_t t0 = NowNs();
    for (int i = 0; i < kBatch; ++i) {
      const std::uint64_t key = (calls + i) % kObjects;
      Bytes& payload = batch[i];
      const netio::DeltaCache::Entry* e = cache.Find(key);
      if (e != nullptr && e->payload.size() == payload.size()) {
        const Bytes diff = dsm::Diff::Encode(e->payload.span(), payload);
        sink += diff.size();
        if (diff.size() < payload.size()) {
          cache.Advance(key, Buf(std::move(payload)), e->seq + 1);
          continue;
        }
      }
      cache.Store(key, Buf(std::move(payload)));
    }
    spent += NowNs() - t0;
    calls += kBatch;
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(spent) / static_cast<double>(calls);
}

/// Push -> WaitPop latency with the consumer parked: the producer waits
/// well past WaitPop's spin window before every push, so each sample
/// includes the condition-variable wake the dispatchers pay when idle.
void TimeHandoff(DriveResult* out) {
  constexpr int kSamples = 2000;
  runtime::Channel channel;
  std::vector<std::int64_t> samples;
  samples.reserve(kSamples);
  std::thread consumer([&] {
    net::Packet p;
    while (channel.WaitPop(p)) samples.push_back(NowNs() - p.enqueued_at);
  });
  for (int i = 0; i < kSamples; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(150));
    net::Packet p;
    p.enqueued_at = NowNs();
    channel.Push(std::move(p));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  channel.Close();
  consumer.join();
  std::sort(samples.begin(), samples.end());
  out->handoff_samples = samples.size();
  if (samples.empty()) return;
  const auto at = [&](double q) {
    const auto i = static_cast<std::size_t>(q * (samples.size() - 1));
    return static_cast<double>(samples[i]);
  };
  out->handoff_p50_ns = at(0.50);
  out->handoff_p99_ns = at(0.99);
}

}  // namespace

DriveResult RunDrives(const MsgMix& mix, std::uint32_t object_bytes,
                      std::uint32_t dirty_bytes) {
  DriveResult r;
  const CodecTimes codecs = TimeCodecs(mix);
  r.proto_encode_ns = codecs.proto_encode;
  r.proto_decode_ns = codecs.proto_decode;
  r.frame_encode_ns = codecs.frame_encode;
  r.frame_decode_ns = codecs.frame_decode;

  const Bytes twin = Pattern(object_bytes, 5);
  const Bytes current = Dirtied(twin, dirty_bytes, 1);
  r.diff_create_ns = TimePerCall(
      [&] { return dsm::Diff::Encode(twin, current).size(); });
  const Bytes diff = dsm::Diff::Encode(twin, current);
  Bytes target = twin;
  r.diff_apply_ns = TimePerCall([&] {
    dsm::Diff::Apply(diff, target);
    return static_cast<std::size_t>(target[0]);
  });

  r.delta_encode_ns = TimeDeltaEncode(object_bytes, dirty_bytes);
  TimeHandoff(&r);
  return r;
}

}  // namespace perfbench
