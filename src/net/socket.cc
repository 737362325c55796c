#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

namespace ufilter::net {

namespace {

Status ErrnoStatus(const char* what, int err) {
  return Status::Internal(std::string(what) + ": " + ::strerror(err));
}

/// Remaining whole milliseconds until `deadline`, clamped to [0, 100].
/// Polls wake at least every 100ms so blocked I/O threads notice shutdown
/// (the owning object shuts the fd down, which also wakes the poll).
int PollTimeoutMs(SteadyTime deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now())
                  .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, 100));
}

bool Expired(SteadyTime deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)", errno);
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return ErrnoStatus("fcntl(F_SETFL)", errno);
  }
  return Status::OK();
}

sockaddr_in LoopbackAddr(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const char* h = host.empty() ? "127.0.0.1" : host.c_str();
  if (::inet_pton(AF_INET, h, &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  return addr;
}

}  // namespace

Result<int> ListenTcp(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr("", port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = ErrnoStatus("bind", errno);
    CloseFd(fd);
    return st;
  }
  if (::listen(fd, backlog) < 0) {
    Status st = ErrnoStatus("listen", errno);
    CloseFd(fd);
    return st;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return ErrnoStatus("getsockname", errno);
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> AcceptWithTimeout(int listen_fd, int timeout_ms) {
  pollfd p{listen_fd, POLLIN, 0};
  int n = ::poll(&p, 1, timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return Status::DeadlineExceeded("accept interrupted");
    return ErrnoStatus("poll(accept)", errno);
  }
  if (n == 0) return Status::DeadlineExceeded("no pending connection");
  if ((p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
    return Status::Unavailable("listening socket closed");
  }
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      return Status::DeadlineExceeded("connection vanished before accept");
    }
    return Status::Unavailable(std::string("accept: ") + ::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       std::chrono::milliseconds timeout) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket", errno);
  Status nb = SetNonBlocking(fd, true);
  if (!nb.ok()) {
    CloseFd(fd);
    return nb;
  }
  sockaddr_in addr = LoopbackAddr(host, port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    Status st =
        Status::Unavailable(std::string("connect: ") + ::strerror(errno));
    CloseFd(fd);
    return st;
  }
  if (rc < 0) {
    // In progress: wait for writability, then read the final status.
    pollfd p{fd, POLLOUT, 0};
    int n = ::poll(&p, 1, static_cast<int>(timeout.count()));
    if (n <= 0) {
      CloseFd(fd);
      return Status::Unavailable("connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      Status st = Status::Unavailable(std::string("connect: ") +
                                      ::strerror(err != 0 ? err : errno));
      CloseFd(fd);
      return st;
    }
  }
  Status back = SetNonBlocking(fd, false);
  if (!back.ok()) {
    CloseFd(fd);
    return back;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status SendAll(int fd, const void* data, size_t n, SteadyTime deadline) {
  const char* p = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < n) {
    pollfd pf{fd, POLLOUT, 0};
    int rc = ::poll(&pf, 1, PollTimeoutMs(deadline));
    if (rc < 0 && errno != EINTR) return ErrnoStatus("poll(send)", errno);
    if (rc == 0 || (rc < 0 && errno == EINTR)) {
      if (Expired(deadline)) {
        return Status::DeadlineExceeded("send timed out mid-frame");
      }
      continue;
    }
    if ((pf.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
        (pf.revents & POLLOUT) == 0) {
      return Status::Unavailable("connection closed while sending");
    }
    auto w = SendNow(fd, p + sent, n - sent);
    if (!w.ok()) return w.status();
    sent += *w;
  }
  return Status::OK();
}

Result<size_t> RecvSome(int fd, void* buf, size_t cap, SteadyTime deadline) {
  while (true) {
    pollfd pf{fd, POLLIN, 0};
    int rc = ::poll(&pf, 1, PollTimeoutMs(deadline));
    if (rc < 0 && errno != EINTR) return ErrnoStatus("poll(recv)", errno);
    if (rc == 0 || (rc < 0 && errno == EINTR)) {
      if (Expired(deadline)) {
        return Status::DeadlineExceeded("recv timed out");
      }
      continue;
    }
    auto r = RecvNow(fd, buf, cap);
    if (!r.ok()) {
      if (r.status().IsDeadlineExceeded()) continue;  // spurious wake
      return r.status();
    }
    if (*r == 0) return Status::Unavailable("connection closed by peer");
    return *r;
  }
}

Result<int> PollFd(int fd, int events, int timeout_ms) {
  pollfd pf{fd, static_cast<short>(events), 0};
  int rc = ::poll(&pf, 1, timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return 0;
    return ErrnoStatus("poll", errno);
  }
  return rc == 0 ? 0 : static_cast<int>(pf.revents);
}

Result<size_t> SendNow(int fd, const void* data, size_t n) {
  while (true) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w >= 0) return static_cast<size_t>(w);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return size_t{0};
    return Status::Unavailable(std::string("send: ") + ::strerror(errno));
  }
}

Result<size_t> RecvNow(int fd, void* buf, size_t cap) {
  while (true) {
    ssize_t r = ::recv(fd, buf, cap, MSG_DONTWAIT);
    if (r >= 0) return static_cast<size_t>(r);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("nothing to read");
    }
    return Status::Unavailable(std::string("recv: ") + ::strerror(errno));
  }
}

void ShutdownFd(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace ufilter::net
