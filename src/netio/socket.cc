#include "src/netio/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "src/netio/frame.h"

namespace hmdsm::netio {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Protocol traffic is small request/response chains; Nagle coalescing
/// would add 40ms stalls to every lock handoff.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool WriteAll(int fd, const Byte* p, std::size_t n, std::string* error) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) *error = Errno("send");
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

int Fd::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Fd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Fd::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

bool ParseHostPort(const std::string& endpoint, std::string* host,
                   std::uint16_t* port) {
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= endpoint.size()) {
    return false;
  }
  unsigned long p = 0;
  for (std::size_t i = colon + 1; i < endpoint.size(); ++i) {
    const char c = endpoint[i];
    if (c < '0' || c > '9') return false;
    p = p * 10 + static_cast<unsigned long>(c - '0');
    if (p > 65535) return false;
  }
  *host = endpoint.substr(0, colon);
  *port = static_cast<std::uint16_t>(p);
  return true;
}

namespace {

/// getaddrinfo wrapper shared by listen and dial.
struct Resolved {
  addrinfo* list = nullptr;
  ~Resolved() {
    if (list != nullptr) ::freeaddrinfo(list);
  }
};

bool Resolve(const std::string& endpoint, bool passive, Resolved* out,
             std::string* error) {
  std::string host;
  std::uint16_t port = 0;
  if (!ParseHostPort(endpoint, &host, &port)) {
    if (error != nullptr) *error = "malformed endpoint '" + endpoint + "'";
    return false;
  }
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (passive) hints.ai_flags = AI_PASSIVE;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_str.c_str(), &hints,
                               &out->list);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "resolve '" + endpoint + "': " + ::gai_strerror(rc);
    }
    return false;
  }
  return true;
}

}  // namespace

Fd ListenOn(const std::string& endpoint, std::uint16_t* bound_port,
            std::string* error) {
  Resolved res;
  if (!Resolve(endpoint, /*passive=*/true, &res, error)) return Fd();
  for (addrinfo* ai = res.list; ai != nullptr; ai = ai->ai_next) {
    Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!fd.valid()) continue;
    int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd.get(), ai->ai_addr, ai->ai_addrlen) != 0) continue;
    if (::listen(fd.get(), SOMAXCONN) != 0) continue;
    if (bound_port != nullptr) {
      sockaddr_storage addr{};
      socklen_t len = sizeof addr;
      if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) ==
          0) {
        if (addr.ss_family == AF_INET) {
          *bound_port =
              ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
        } else if (addr.ss_family == AF_INET6) {
          *bound_port =
              ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
        }
      }
    }
    return fd;
  }
  if (error != nullptr) *error = Errno("listen on '" + endpoint + "'");
  return Fd();
}

Fd AcceptOn(int listen_fd, std::string* error) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return Fd(fd);
    }
    if (errno == EINTR) continue;
    if (error != nullptr) *error = Errno("accept");
    return Fd();
  }
}

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

Fd DialWithRetry(const std::string& endpoint, int timeout_ms,
                 std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string last_error;
  for (;;) {
    Resolved res;
    if (!Resolve(endpoint, /*passive=*/false, &res, &last_error)) {
      if (error != nullptr) *error = last_error;
      return Fd();  // resolution failures don't heal with retries
    }
    for (addrinfo* ai = res.list; ai != nullptr; ai = ai->ai_next) {
      Fd fd(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
      if (!fd.valid()) continue;
      if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
        SetNoDelay(fd.get());
        return fd;
      }
      last_error = Errno("connect '" + endpoint + "'");
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      if (error != nullptr) {
        *error = last_error.empty() ? "connect timeout" : last_error;
      }
      return Fd();
    }
    // The peer's listener may simply not be up yet (mesh bring-up).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool WriteFrame(int fd, ByteSpan frame, std::string* error) {
  const auto header = RecordHeader(frame.size());
  return WriteAll(fd, header.data(), header.size(), error) &&
         WriteAll(fd, frame.data(), frame.size(), error);
}

bool ReadFrame(int fd, Buf* out, std::string* error) {
  error->clear();
  // A handshake reads one record, so the pool only lends the frame its
  // buffer; the record reader stops at the record's end and leaves every
  // later byte in the socket for the reactor.
  BufferPool pool;
  RecordAssembler rx(&pool);
  for (;;) {
    const MutByteSpan window = rx.Window();
    const ssize_t r = ::recv(fd, window.data(), window.size(), 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      *error = Errno("recv");
      return false;
    }
    if (r == 0) {  // a clean EOF at a record boundary leaves error empty
      if (!rx.idle()) *error = "connection closed mid-frame";
      return false;
    }
    switch (rx.Commit(static_cast<std::size_t>(r), out, error)) {
      case RecordAssembler::Step::kMore:
        break;
      case RecordAssembler::Step::kFrame:
        return true;
      case RecordAssembler::Step::kBadLength:
        return false;
    }
  }
}

}  // namespace hmdsm::netio
