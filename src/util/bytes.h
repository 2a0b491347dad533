// Byte-buffer aliases and small helpers shared by the serialization layer,
// the diff codec, and the object store — plus Buf, the shared immutable
// buffer that carries protocol payloads through the message hot path.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "src/util/check.h"

namespace hmdsm {

using Byte = std::uint8_t;
using Bytes = std::vector<Byte>;
using ByteSpan = std::span<const Byte>;
using MutByteSpan = std::span<Byte>;

/// Returns a read-only byte view over an arbitrary trivially-copyable value.
template <typename T>
ByteSpan AsBytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return ByteSpan(reinterpret_cast<const Byte*>(&value), sizeof(T));
}

/// Copies a span into a fresh owning buffer.
inline Bytes ToBytes(ByteSpan s) { return Bytes(s.begin(), s.end()); }

/// Constant-size, zero-filled buffer.
inline Bytes ZeroBytes(std::size_t n) { return Bytes(n, Byte{0}); }

/// Immutable byte buffer with cheap sharing — the payload representation of
/// the message hot path. A protocol message is encoded into a Bytes once;
/// wrapping it in a Buf makes every subsequent hand-off free:
///
///   * small payloads (<= kInlineCapacity — most protocol messages: requests,
///     acks, redirects, grants) are stored inline, so they cost no extra
///     allocation and no refcount traffic at all;
///   * larger payloads (object replies, big diffs) are moved into a shared
///     refcounted owner, so a copy is a refcount bump — Broadcast fans a
///     payload out to N-1 destinations by cloning headers, not bytes;
///   * View() aliases a sub-range of a refcounted Buf without copying — the
///     socket receive path hands each decoded payload out as a view of the
///     wire frame it arrived in (small views re-inline so a tiny payload
///     never pins a large frame buffer alive).
///
/// Buf is immutable after construction and safe to share across threads
/// (shared_ptr refcounts are atomic); consumers read it through span().
class Buf {
 public:
  /// Payloads at or below this size are stored inline (no heap owner).
  static constexpr std::size_t kInlineCapacity = 64;

  Buf() = default;

  /// Wraps an encoded buffer; implicit on purpose so `Send(Encode(msg))`
  /// stays a single expression. Small buffers inline, large ones move into
  /// a shared owner — never a full copy.
  Buf(Bytes&& owned) {  // NOLINT(google-explicit-constructor)
    if (owned.size() <= kInlineCapacity) {
      AssignInline(ByteSpan(owned));
    } else {
      owner_ = std::make_shared<const Bytes>(std::move(owned));
      data_ = owner_->data();
      size_ = owner_->size();
    }
  }

  /// Wraps an externally owned shared buffer without copying. Small buffers
  /// re-inline (releasing `owner` immediately — a pooled buffer goes back to
  /// its pool instead of being pinned by a tiny payload). The receive paths
  /// use this with util::BufferPool so frame storage is recycled, not
  /// reallocated, once the last reference drops.
  static Buf Adopt(std::shared_ptr<const Bytes> owner) {
    if (owner == nullptr || owner->size() <= kInlineCapacity) {
      Buf b;
      b.AssignInline(owner != nullptr ? ByteSpan(*owner) : ByteSpan());
      return b;
    }
    Buf b;
    b.data_ = owner->data();
    b.size_ = owner->size();
    b.owner_ = std::move(owner);
    return b;
  }

  /// Copies a span into a fresh Buf (inline when small).
  static Buf Copy(ByteSpan s) {
    if (s.size() <= kInlineCapacity) {
      Buf b;
      b.AssignInline(s);
      return b;
    }
    return Buf(Bytes(s.begin(), s.end()));
  }

  Buf(const Buf& other) { AssignFrom(other); }
  Buf& operator=(const Buf& other) {
    if (this != &other) AssignFrom(other);
    return *this;
  }
  Buf(Buf&& other) noexcept {
    AssignFrom(other);
    other.Reset();
  }
  Buf& operator=(Buf&& other) noexcept {
    if (this != &other) {
      AssignFrom(other);
      other.Reset();
    }
    return *this;
  }

  /// Aliases `length` bytes starting at `offset` without copying the
  /// underlying buffer (refcount bump). Small views are re-inlined so they
  /// do not keep a large parent buffer alive.
  Buf View(std::size_t offset, std::size_t length) const {
    HMDSM_CHECK_MSG(offset <= size_ && length <= size_ - offset,
                    "Buf::View out of range");
    if (length <= kInlineCapacity || owner_ == nullptr) {
      return Copy(ByteSpan(data() + offset, length));
    }
    Buf b;
    b.owner_ = owner_;
    b.data_ = data_ + offset;
    b.size_ = length;
    return b;
  }

  ByteSpan span() const { return ByteSpan(data(), size_); }
  operator ByteSpan() const { return span(); }  // NOLINT

  const Byte* data() const {
    return owner_ != nullptr ? data_ : inline_.data();
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Byte operator[](std::size_t i) const { return data()[i]; }

  /// Copies the contents out into an owning vector (tests, trace capture).
  Bytes ToOwned() const { return ToBytes(span()); }

  void Reset() {
    owner_.reset();
    data_ = nullptr;
    size_ = 0;
  }

 private:
  /// Precondition: s.size() <= kInlineCapacity (every caller branches on
  /// it). Stated here so the compiler sees the bound on the copy too; the
  /// UBSan build traps a violation.
  void AssignInline(ByteSpan s) {
    if (s.size() > kInlineCapacity) __builtin_unreachable();
    owner_.reset();
    if (!s.empty()) std::memcpy(inline_.data(), s.data(), s.size());
    data_ = nullptr;  // inline storage; data() re-anchors to inline_
    size_ = s.size();
  }

  void AssignFrom(const Buf& other) {
    if (other.owner_ != nullptr) {
      owner_ = other.owner_;
      data_ = other.data_;
      size_ = other.size_;
    } else {
      AssignInline(other.span());
    }
  }

  std::shared_ptr<const Bytes> owner_;  // null: inline (or empty)
  const Byte* data_ = nullptr;          // into *owner_ when refcounted
  std::size_t size_ = 0;
  std::array<Byte, kInlineCapacity> inline_;
};

inline bool operator==(const Buf& a, ByteSpan b) {
  return std::equal(a.span().begin(), a.span().end(), b.begin(), b.end());
}
inline bool operator==(const Buf& a, const Bytes& b) {
  return a == ByteSpan(b);
}
inline bool operator==(const Buf& a, const Buf& b) { return a == b.span(); }

}  // namespace hmdsm
