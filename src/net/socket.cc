#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <thread>

namespace jecb::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + strerror(errno));
}

Result<Socket> ListenUnixImpl(const SocketAddr& addr, int backlog) {
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  if (addr.path.size() >= sizeof(sa.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + addr.path);
  }
  memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
  Socket sock(socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket(AF_UNIX)");
  ::unlink(addr.path.c_str());  // a stale file from a crashed run blocks bind
  if (bind(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Errno("bind(unix)");
  }
  if (listen(sock.fd(), backlog) != 0) return Errno("listen(unix)");
  return sock;
}

Result<Socket> ListenTcpImpl(const SocketAddr& addr, int backlog) {
  Socket sock(socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket(AF_INET)");
  int one = 1;
  setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("bad tcp host: " + addr.host);
  }
  if (bind(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Errno("bind(tcp)");
  }
  if (listen(sock.fd(), backlog) != 0) return Errno("listen(tcp)");
  return sock;
}

Result<Socket> ConnectOnce(const SocketAddr& addr) {
  if (addr.is_unix) {
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (addr.path.size() >= sizeof(sa.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " + addr.path);
    }
    memcpy(sa.sun_path, addr.path.c_str(), addr.path.size() + 1);
    Socket sock(socket(AF_UNIX, SOCK_STREAM, 0));
    if (!sock.valid()) return Errno("socket(AF_UNIX)");
    if (connect(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      return Errno("connect(unix)");
    }
    return sock;
  }
  Socket sock(socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket(AF_INET)");
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("bad tcp host: " + addr.host);
  }
  if (connect(sock.fd(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Errno("connect(tcp)");
  }
  // Frames are small request/response pairs; Nagle only adds latency here.
  int one = 1;
  setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string SocketAddr::ToString() const {
  return is_unix ? "unix:" + path : "tcp:" + host + ":" + std::to_string(port);
}

Result<Socket> Listen(const SocketAddr& addr, int backlog) {
  return addr.is_unix ? ListenUnixImpl(addr, backlog) : ListenTcpImpl(addr, backlog);
}

Result<uint16_t> BoundTcpPort(const Socket& listener) {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(sa.sin_port));
}

Result<Socket> Accept(const Socket& listener) {
  for (;;) {
    sockaddr_storage peer{};
    socklen_t len = sizeof(peer);
    int fd = accept(listener.fd(), reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd >= 0) {
      if (peer.ss_family == AF_INET || peer.ss_family == AF_INET6) {
        // A shard replies with several frames in a row (tuple batches, then
        // the vote); with Nagle on, the last one waits for a delayed ACK.
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<Socket> Connect(const SocketAddr& addr, int max_attempts) {
  for (int attempt = 0;; ++attempt) {
    Result<Socket> sock = ConnectOnce(addr);
    if (sock.ok()) return sock;
    // The listener is bound before any client runs, so refusals are
    // transient (backlog overflow under load); retry briefly.
    if (attempt + 1 >= max_attempts) return sock;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status SetNonBlocking(const Socket& sock, bool non_blocking) {
  int flags = fcntl(sock.fd(), F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  flags = non_blocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (fcntl(sock.fd(), F_SETFL, flags) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

Status SendAll(const Socket& sock, const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = send(sock.fd(), p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // The send side stays blocking in this codebase; an EAGAIN here
        // means someone flipped the fd — busy-wait briefly rather than
        // corrupt the stream by giving up mid-frame.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      return Errno("send");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RecvAll(const Socket& sock, void* data, size_t len) {
  char* p = static_cast<char*>(data);
  while (len > 0) {
    ssize_t n = recv(sock.fd(), p, len, 0);
    if (n == 0) return Status::Internal("peer closed mid-message");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

RecvSomeResult RecvSome(const Socket& sock, void* data, size_t cap) {
  for (;;) {
    ssize_t n = recv(sock.fd(), data, cap, 0);
    if (n >= 0) return {n, Status::OK()};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {-1, Status::OK()};
    return {-1, Errno("recv")};
  }
}

}  // namespace jecb::net
