// Thin RAII layer over POSIX stream sockets (Unix-domain and TCP loopback):
// everything the distributed runtime needs to listen, accept, connect and
// move whole byte ranges, and nothing more. All helpers are EINTR-safe and
// return Status/Result instead of errno so callers never consult errno
// themselves. Higher layers (net/wire.h framing, net/event_loop.h) are
// byte-stream agnostic: a Socket from ListenUnix and one from ListenTcp are
// interchangeable.
#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace jecb::net {

/// Move-only owner of one socket fd. Closing is idempotent; a moved-from
/// Socket holds -1 and is safe to destroy.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Releases ownership without closing (e.g. handing the fd to a child).
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void Close();

 private:
  int fd_ = -1;
};

/// One listen/connect endpoint. `path` is used for Unix-domain sockets,
/// `host`/`port` for TCP. A bound TCP listener created with port 0 reports
/// the kernel-assigned port back through BoundTcpPort().
struct SocketAddr {
  bool is_unix = true;
  std::string path;            ///< unix: filesystem path of the socket
  std::string host = "127.0.0.1";
  uint16_t port = 0;           ///< tcp: 0 lets the kernel pick on Listen

  std::string ToString() const;
};

/// Binds and listens on `addr`. For unix addresses any stale socket file is
/// unlinked first; for tcp, SO_REUSEADDR is set and `addr.port == 0` asks
/// the kernel for an ephemeral port (read it back with BoundTcpPort).
Result<Socket> Listen(const SocketAddr& addr, int backlog = 64);

/// The port a bound TCP listener actually got (after Listen with port 0).
Result<uint16_t> BoundTcpPort(const Socket& listener);

/// Accepts one pending connection; blocks unless the listener is
/// non-blocking (in which case EAGAIN is surfaced as a Status). A TCP peer
/// gets TCP_NODELAY, as Connect's side does.
Result<Socket> Accept(const Socket& listener);

/// Connects to `addr`, retrying briefly on ECONNREFUSED/ENOENT so a client
/// racing a server that is still between bind and accept does not flake.
Result<Socket> Connect(const SocketAddr& addr, int max_attempts = 50);

/// Marks the fd non-blocking (the event loop's read side).
Status SetNonBlocking(const Socket& sock, bool non_blocking);

/// Writes all `len` bytes, looping over partial writes and EINTR. SIGPIPE is
/// suppressed (MSG_NOSIGNAL) so a dead peer surfaces as a Status, never a
/// signal.
Status SendAll(const Socket& sock, const void* data, size_t len);

/// Reads exactly `len` bytes. A clean EOF mid-read is an error (the stream
/// protocol never truncates a frame on purpose).
Status RecvAll(const Socket& sock, void* data, size_t len);

/// One non-blocking read of at most `cap` bytes. Returns the byte count:
/// 0 means the peer closed; -1 with an ok() status means "no data yet"
/// (EAGAIN); -1 with a failed status is a real error.
struct RecvSomeResult {
  ssize_t n = -1;
  Status status;
};
RecvSomeResult RecvSome(const Socket& sock, void* data, size_t cap);

}  // namespace jecb::net
