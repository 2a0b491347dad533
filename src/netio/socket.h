// Thin POSIX TCP helpers for the socket transport: RAII descriptors,
// listen/dial (with retry, for mesh bring-up races), and the blocking
// record I/O of the mesh handshake. The record format and its length bound
// live in frame.h; every failure path returns an error string instead of
// crashing — the caller decides whether a failed read is a protocol
// violation or an expected end-of-run EOF.
#pragma once

#include <cstdint>
#include <string>

#include "src/util/bytes.h"

namespace hmdsm::netio {

/// Owning socket descriptor. Movable, closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { Close(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void Close();

  /// Half-closes the write side (EOF to the peer's reader) while leaving
  /// the read side open to drain the peer's remaining frames.
  void ShutdownWrite();

 private:
  int fd_ = -1;
};

/// Splits "host:port"; false on malformed input.
bool ParseHostPort(const std::string& endpoint, std::string* host,
                   std::uint16_t* port);

/// Binds and listens on `endpoint` ("host:port"; port 0 picks an ephemeral
/// port). Returns an invalid Fd with `error` set on failure. `bound_port`
/// (optional) receives the actual port.
Fd ListenOn(const std::string& endpoint, std::uint16_t* bound_port,
            std::string* error);

/// Accepts one connection; invalid Fd + error on failure.
Fd AcceptOn(int listen_fd, std::string* error);

/// Dials `endpoint`, retrying on connection-refused until `timeout_ms`
/// elapses (mesh bring-up: the listener may not be up yet).
Fd DialWithRetry(const std::string& endpoint, int timeout_ms,
                 std::string* error);

/// Bounds recv() on `fd` to `ms` milliseconds (0 clears the bound). Wrapped
/// around handshake reads so a connected-but-silent peer cannot hang mesh
/// bring-up (or its teardown) forever; cleared before normal traffic.
void SetRecvTimeout(int fd, int ms);

/// Puts `fd` into O_NONBLOCK mode (the epoll reactor's sockets); false on
/// fcntl failure.
bool SetNonBlocking(int fd);

/// Writes `frame` as one record (frame.h); false + error on failure.
bool WriteFrame(int fd, ByteSpan frame, std::string* error);

/// Reads one record. Returns:
///   * true  — `*out` holds the frame;
///   * false with empty error — clean EOF at a record boundary;
///   * false with non-empty error — short read, I/O error, or a length the
///     record assembler rejects (before allocating).
bool ReadFrame(int fd, Buf* out, std::string* error);

}  // namespace hmdsm::netio
