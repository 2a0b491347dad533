// The shared-memory ring on its own: two ShmTransports of a two-process
// mesh living in one process, process 0 writing into process 1's inbound
// segment. Frames larger than the ring stream through it, record headers
// survive the wrap point at every offset, a concurrent writer's frames
// arrive in FIFO order, hostile segment names and geometries are refused,
// a torn ring (a rejected record length) is reported exactly once, and a
// reader parked on its futex wakes for the next frame at once.
#include "src/netio/shm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/frame.h"
#include "src/util/spin.h"
#include "tests/watchdog.h"

namespace hmdsm::netio {
namespace {

using std::chrono::seconds;

std::unique_ptr<ShmTransport> MakeShm(std::size_t self_group,
                                      std::size_t group_count = 2) {
  ShmTransportOptions o;
  o.group_count = group_count;
  o.self_group = self_group;
  std::string error;
  std::unique_ptr<ShmTransport> shm = ShmTransport::Create(o, &error);
  HMDSM_CHECK_MSG(shm != nullptr, "shm create: " << error);
  return shm;
}

/// A frame whose bytes name its sequence number and length.
Bytes Frame(std::uint32_t seq, std::size_t size) {
  Bytes f(size);
  for (std::size_t i = 0; i < size; ++i)
    f[i] = static_cast<Byte>(seq * 31 + i * 7);
  return f;
}

/// Process 0 (`tx`) attached to process 1's segment (`rx`), whose reader
/// collects every frame and every fatal report.
class RingPair {
 public:
  RingPair() : tx_(MakeShm(0)), rx_(MakeShm(1)) {
    std::string error;
    HMDSM_CHECK_MSG(tx_->AttachPeer(1, rx_->segment_name(), &error),
                    "attach: " << error);
    rx_->StartReader(
        [this](std::size_t src, Buf frame, bool) {
          std::lock_guard lock(mu_);
          EXPECT_EQ(src, 0u);
          frames_.push_back(std::move(frame));
          cv_.notify_all();
        },
        [this](const std::string& why) {
          std::lock_guard lock(mu_);
          fatals_.push_back(why);
          cv_.notify_all();
        },
        &pool_);
  }

  ~RingPair() {
    tx_->Stop();
    rx_->Stop();
  }

  bool Write(ByteSpan frame) { return tx_->WriteFrame(1, frame); }

  /// Waits up to `limit` for `n` frames; returns what arrived.
  std::vector<Buf> AwaitFrames(std::size_t n, seconds limit = seconds(10)) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, limit, [&] { return frames_.size() >= n; });
    return frames_;
  }

  /// Waits up to `limit` for a first fatal report; returns all of them.
  std::vector<std::string> AwaitFatal(seconds limit) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, limit, [&] { return !fatals_.empty(); });
    return fatals_;
  }

  std::vector<std::string> fatals() {
    std::lock_guard lock(mu_);
    return fatals_;
  }

  const SpinTally& reader_spin() const { return rx_->reader_spin(); }

  std::size_t frame_count() {
    std::lock_guard lock(mu_);
    return frames_.size();
  }

 private:
  BufferPool pool_;
  std::unique_ptr<ShmTransport> tx_;
  std::unique_ptr<ShmTransport> rx_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Buf> frames_;
  std::vector<std::string> fatals_;
};

TEST(NetioShm, FrameLargerThanTheRingStreamsThrough) {
  RingPair ring;
  const Bytes big = Frame(1, 3 * kShmRingBytes);
  ASSERT_TRUE(ring.Write(ByteSpan(big)));
  const std::vector<Buf> got = ring.AwaitFrames(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], big);
}

TEST(NetioShm, RecordHeadersStraddleTheWrapPointAtEachOffset) {
  // For each offset k, a filler record puts the next record's header k
  // bytes before the wrap point: k = 1..3 split the header across it, 0
  // and 4 put the wrap just before or just after the header.
  RingPair ring;
  std::vector<Bytes> sent;
  std::uint64_t pos = 0;  // ring stream position (the writer's tail)
  for (std::size_t k = 0; k <= kRecordHeaderBytes; ++k) {
    const std::size_t at = static_cast<std::size_t>(pos % kShmRingBytes);
    // Filler length so that after it the stream sits k bytes shy of a
    // multiple of the ring size.
    std::size_t filler =
        (2 * kShmRingBytes - at - kRecordHeaderBytes - k) % kShmRingBytes;
    if (filler == 0) filler = kShmRingBytes;
    sent.push_back(Frame(static_cast<std::uint32_t>(2 * k), filler));
    sent.push_back(Frame(static_cast<std::uint32_t>(2 * k + 1), 37));
    for (std::size_t i = sent.size() - 2; i < sent.size(); ++i) {
      ASSERT_TRUE(ring.Write(ByteSpan(sent[i])));
      pos += kRecordHeaderBytes + sent[i].size();
    }
    ASSERT_EQ((pos - kRecordHeaderBytes - 37) % kShmRingBytes,
              (kShmRingBytes - k) % kShmRingBytes);
  }
  const std::vector<Buf> got = ring.AwaitFrames(sent.size());
  ASSERT_EQ(got.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i)
    EXPECT_EQ(got[i], sent[i]) << "frame " << i;
  EXPECT_TRUE(ring.fatals().empty());
}

TEST(NetioShm, ConcurrentWriterFramesArriveInFifoOrder) {
  RingPair ring;
  constexpr std::uint32_t kFrames = 10000;
  std::thread writer([&ring] {
    for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
      // Sizes cycle from tiny (inline Bufs) to pooled ones.
      const Bytes f = Frame(seq, 8 + (seq * 97) % 700);
      if (!ring.Write(ByteSpan(f))) return;
    }
  });
  const std::vector<Buf> got = ring.AwaitFrames(kFrames, seconds(60));
  writer.join();
  ASSERT_EQ(got.size(), kFrames);
  for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
    ASSERT_EQ(got[seq], Frame(seq, 8 + (seq * 97) % 700)) << "frame " << seq;
  }
}

TEST(NetioShm, AttachRejectsMalformedNames) {
  std::unique_ptr<ShmTransport> tx = MakeShm(0);
  const std::vector<std::string> names = {"", "x", "/a/b",
                                          "/" + std::string(120, 'n')};
  for (const std::string& name : names) {
    std::string error;
    EXPECT_FALSE(tx->AttachPeer(1, name, &error)) << "'" << name << "'";
    EXPECT_NE(error.find("malformed segment name"), std::string::npos)
        << "'" << name << "': " << error;
    EXPECT_FALSE(tx->attached(1));
  }
  tx->Stop();
}

TEST(NetioShm, AttachRejectsAGeometryMismatch) {
  // A three-process segment is large enough to map, but its ring count
  // does not match a two-process mesh.
  std::unique_ptr<ShmTransport> tx = MakeShm(0);
  std::unique_ptr<ShmTransport> other = MakeShm(1, /*group_count=*/3);
  std::string error;
  EXPECT_FALSE(tx->AttachPeer(1, other->segment_name(), &error));
  EXPECT_NE(error.find("geometry mismatch"), std::string::npos) << error;
  EXPECT_FALSE(tx->attached(1));
  other->Stop();
  tx->Stop();
}

TEST(NetioShm, TornRingIsReportedOnceNamingTheWriter) {
  RingPair ring;
  const Bytes good = Frame(1, 100);
  ASSERT_TRUE(ring.Write(ByteSpan(good)));
  // An empty frame puts a record length of 0 in the ring.
  ASSERT_TRUE(ring.Write(ByteSpan()));
  const auto start = std::chrono::steady_clock::now();
  const std::vector<std::string> fatals = ring.AwaitFatal(seconds(5));
  EXPECT_LT(std::chrono::steady_clock::now() - start, seconds(5));
  ASSERT_EQ(fatals.size(), 1u);
  EXPECT_NE(fatals[0].find("group 0"), std::string::npos) << fatals[0];
  EXPECT_NE(fatals[0].find("frame length 0"), std::string::npos) << fatals[0];
  // The writer keeps publishing: the poisoned ring is never re-read, so
  // neither a second report nor a frame follows.
  for (std::uint32_t i = 0; i < 8; ++i) {
    const Bytes f = Frame(i, 64);
    ASSERT_TRUE(ring.Write(ByteSpan(f)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(ring.fatals().size(), 1u);
  EXPECT_EQ(ring.frame_count(), 1u);
}

// A frame published after the reader spun out and parked on its futex is
// delivered at once: the writer sees reader_waiting and issues FUTEX_WAKE.
// A lost wakeup would show as the reader's 50 ms backstop on every round.
TEST(NetioShm, FramePublishedToAParkedReaderWakesItPromptly) {
  Watchdog dog("frame to a parked shm reader");
  constexpr std::uint32_t kRounds = 5;
  RingPair ring;
  std::vector<std::chrono::steady_clock::duration> took;
  for (std::uint32_t i = 0; i < kRounds; ++i) {
    // Publish only once the reader has counted a park (on a loaded host a
    // spin can outlast the test's sleep and end in a hit), and after 5x
    // the window, by which time it sleeps in FutexWait.
    const std::uint64_t parks = ring.reader_spin().parks.load();
    while (ring.reader_spin().parks.load() == parks)
      std::this_thread::sleep_for(kSpinWindow);
    std::this_thread::sleep_for(5 * kSpinWindow);
    const Bytes f = Frame(i, 64);
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(ring.Write(ByteSpan(f)));
    ASSERT_EQ(ring.AwaitFrames(i + 1).size(), i + 1);
    took.push_back(std::chrono::steady_clock::now() - start);
  }
  std::sort(took.begin(), took.end());
  EXPECT_LT(took[kRounds / 2], std::chrono::milliseconds(10));
}

}  // namespace
}  // namespace hmdsm::netio
