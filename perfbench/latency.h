// Fine-resolution latency recorder for the benchmark.
//
// stats::Histogram keeps one bucket per power of two, so it can only bound a
// quantile within 2x — too coarse to resolve a 10% regression bound. This
// recorder is log-linear instead: values below 128 ns are exact, and every
// octave above is split into 128 equal sub-buckets, so a bucket is at most
// 1/128 of its lower edge wide and a reported quantile, interpolated inside
// its bucket, is within 0.8% of the true sample. Recorders merge by adding
// counts, which is how per-worker recorders from the rank processes combine
// in the parent.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <vector>

#include "src/util/check.h"
#include "src/util/serde.h"

namespace perfbench {

/// steady_clock nanoseconds: CLOCK_MONOTONIC, so stamps taken in different
/// processes on one host compare directly.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class LatencyHist {
 public:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  // Indexes 0..kSub-1 are exact; each of the 57 octaves from 2^7 to 2^63
  // adds kSub sub-buckets.
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  LatencyHist() : counts_(kBuckets, 0) {}

  void Record(std::uint64_t ns) {
    counts_[Index(ns)] += 1;
    count_ += 1;
    sum_ns_ += static_cast<double>(ns);
  }

  void Merge(const LatencyHist& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
  }

  std::uint64_t count() const { return count_; }
  double sum_ns() const { return sum_ns_; }

  /// Whether quantile q leaves at least `beyond` samples above it — the
  /// rule for reporting a percentile at all.
  bool Resolves(double q, std::uint64_t beyond = 10) const {
    return static_cast<double>(count_) * (1.0 - q) >=
           static_cast<double>(beyond);
  }

  /// The ceil(q * count)-th smallest sample, in ns: its bucket's lower
  /// edge plus the sample's rank position across the bucket's width.
  double Quantile(double q) const {
    if (count_ == 0) return 0;
    auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (seen + counts_[i] >= target) {
        const double frac = (static_cast<double>(target - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
        return Low(i) + frac * Width(i);
      }
      seen += counts_[i];
    }
    return Low(kBuckets - 1);
  }

  /// Sparse form: only occupied buckets travel.
  void Encode(hmdsm::Writer& w) const {
    w.u64(count_);
    w.f64(sum_ns_);
    std::uint64_t occupied = 0;
    for (std::uint64_t c : counts_) occupied += c != 0;
    w.u64(occupied);
    for (std::size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      w.u32(static_cast<std::uint32_t>(i));
      w.u64(counts_[i]);
    }
  }

  static LatencyHist Decode(hmdsm::Reader& r) {
    LatencyHist h;
    h.count_ = r.u64();
    h.sum_ns_ = r.f64();
    const std::uint64_t occupied = r.u64();
    HMDSM_CHECK_MSG(occupied <= kBuckets, "latency hist: bad bucket count");
    std::uint64_t total = 0;
    for (std::uint64_t k = 0; k < occupied; ++k) {
      const std::uint32_t i = r.u32();
      HMDSM_CHECK_MSG(i < kBuckets, "latency hist: bucket out of range");
      h.counts_[i] = r.u64();
      total += h.counts_[i];
    }
    HMDSM_CHECK_MSG(total == h.count_, "latency hist: count mismatch");
    return h;
  }

 private:
  static std::size_t Index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    return static_cast<std::size_t>(shift + 1) * kSub + ((v >> shift) - kSub);
  }

  // Bucket i holds the integers [Low(i), Low(i) + Width(i)).
  static double Low(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    return std::ldexp(static_cast<double>(kSub + i % kSub),
                      static_cast<int>(shift));
  }
  static double Width(std::size_t i) {
    return i < kSub ? 1.0 : std::ldexp(1.0, static_cast<int>(i / kSub - 1));
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ns_ = 0;
};

}  // namespace perfbench
