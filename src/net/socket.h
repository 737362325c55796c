// Thin POSIX TCP helpers shared by the server, the client library and the
// fault-injection proxy: listen/accept/connect with explicit timeouts,
// deadline-bounded send/recv loops built on poll(2), and one-shot
// non-blocking send/recv for callers that poll for themselves (the
// server's connections). Everything fails into Status instead of errno
// spaghetti:
//   - kDeadlineExceeded: the caller's deadline passed before the I/O
//     completed (the byte stream is mid-frame and must be abandoned);
//   - kUnavailable: the peer is gone (refused, reset, or closed) — the
//     transport-level "transient" the client's retry policy keys on;
//   - kInvalidArgument / kInternal: programmer or OS errors.
// All sends use MSG_NOSIGNAL so a dead peer surfaces as a Status, never a
// SIGPIPE — a server must survive any client dying at any byte.
#ifndef UFILTER_NET_SOCKET_H_
#define UFILTER_NET_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"

namespace ufilter::net {

using SteadyTime = std::chrono::steady_clock::time_point;

/// Opens a listening TCP socket on 127.0.0.1:`port` (port 0 = kernel picks
/// an ephemeral port; read it back with LocalPort). SO_REUSEADDR set.
Result<int> ListenTcp(uint16_t port, int backlog = 64);

/// The port a bound socket actually listens on.
Result<uint16_t> LocalPort(int fd);

/// Waits up to `timeout_ms` for a pending connection, then accepts it.
/// kDeadlineExceeded when nothing arrived (poll again), kUnavailable when
/// the listening socket is gone (shutdown path).
Result<int> AcceptWithTimeout(int listen_fd, int timeout_ms);

/// Non-blocking connect to 127.0.0.1:`port` (or `host` if given) bounded
/// by `timeout`. Refused / unreachable / timed out all map to kUnavailable
/// — from the retry policy's point of view they are the same transient.
Result<int> ConnectTcp(const std::string& host, uint16_t port,
                       std::chrono::milliseconds timeout);

/// Writes all `n` bytes before `deadline` (poll + send loop).
Status SendAll(int fd, const void* data, size_t n, SteadyTime deadline);

/// Reads *some* bytes (1..cap) before `deadline`. kUnavailable on EOF /
/// reset (peer gone), kDeadlineExceeded when nothing arrived in time.
Result<size_t> RecvSome(int fd, void* buf, size_t cap, SteadyTime deadline);

/// Waits up to `timeout_ms` for `events` (POLLIN / POLLOUT) on `fd` and
/// returns the poll revents: 0 when nothing happened in time.
Result<int> PollFd(int fd, int events, int timeout_ms);

/// One send that never blocks: the number of bytes the socket took, 0
/// when its buffer is full. kUnavailable when the peer is gone.
Result<size_t> SendNow(int fd, const void* data, size_t n);

/// One recv that never blocks: bytes read (1..cap), or 0 when the peer has
/// finished sending (EOF). kDeadlineExceeded when nothing is pending,
/// kUnavailable on reset.
Result<size_t> RecvNow(int fd, void* buf, size_t cap);

/// shutdown(2) both directions — wakes any thread blocked on the fd.
void ShutdownFd(int fd);

/// close(2), ignoring errors; negative fds ignored.
void CloseFd(int fd);

}  // namespace ufilter::net

#endif  // UFILTER_NET_SOCKET_H_
