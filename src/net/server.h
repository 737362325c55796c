// The network front end: a TCP server speaking the CRC-framed protocol of
// net/frame.h over a service::CheckService (the paper's Fig. 5 middleware
// deployment, fronting many clients the way XPERANTO / SilkRoute front a
// relational engine).
//
// Fault-tolerance contract (proven by tests/net/ under the chaos proxy):
//   - deadlines propagate end-to-end: a request's relative budget is
//     rebased on arrival, expired requests are rejected at admission,
//     queued requests are purged by the workers before execution, and the
//     kDeadlineExceeded verdict certifies nothing ran;
//   - overload is shed, never socketed away: when the admission queue is
//     full past the request's budget the server answers kShed with an
//     advisory retry_after_ms instead of letting bytes pile up;
//   - broken peers cannot hurt the server: torn frames, corrupt bytes and
//     severed connections surface as Status, drop only that connection,
//     and count in the server_protocol_errors series;
//   - graceful drain (Drain(), wired to SIGTERM in tools/ufilter_server):
//     stop accepting, answer new requests kDraining, finish or
//     deadline-expire everything in flight, sync the WAL, then stop.
//
// Threading: one accept loop; per connection one reader (decodes frames,
// admits requests) and one writer (serializes responses — they may finish
// out of submission order internally, but each connection's responses are
// written in request order, matched by request_id either way).
#ifndef UFILTER_NET_SERVER_H_
#define UFILTER_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "service/check_service.h"

namespace ufilter::net {

struct ServerOptions {
  /// Listen port; 0 = kernel-assigned ephemeral (read back via port()).
  uint16_t port = 0;
  int backlog = 64;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Advisory client backoff attached to kShed / kDraining responses.
  uint32_t shed_retry_after_ms = 50;
  uint32_t drain_retry_after_ms = 200;
  /// Per-connection response pipeline bound: a client with this many
  /// unanswered requests stops being read (backpressure on one socket,
  /// invisible to every other connection).
  size_t max_pipeline = 64;
  /// Bound on writing one response to a slow client; a socket that cannot
  /// take a response within this window is dropped.
  std::chrono::milliseconds write_timeout{5000};
  /// Drain(): how long to wait for in-flight work before forcing the rest
  /// through the deadline-expiry path.
  std::chrono::milliseconds drain_grace{5000};
  /// Read-only follower mode: when non-empty ("host:port" of the primary),
  /// every apply request is refused immediately with kRedirectToPrimary
  /// carrying this address; check-only requests are served normally from
  /// pinned snapshots.
  std::string redirect_primary;
  service::CheckServiceOptions service;
};

class Server {
 public:
  /// Binds, starts the worker pool and the accept loop. `filter` (and its
  /// database) must outlive the server.
  static Result<std::unique_ptr<Server>> Start(check::UFilter* filter,
                                               ServerOptions options = {});
  /// Drains (see Drain) and joins everything.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }
  service::CheckService& service() { return *service_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Graceful drain: stop accepting, answer new check requests kDraining,
  /// wait (bounded by drain_grace) for in-flight work to finish or expire,
  /// flush every response, shut the check service down (which syncs the
  /// WAL), and join all threads. Idempotent; also the destructor's path.
  void Drain();

 private:
  struct Pending {
    uint64_t request_id = 0;
    /// Admitted into the check service: the verdict arrives via `future`.
    bool has_future = false;
    std::future<check::CheckReport> future;
    /// Pre-encoded payload for immediate answers (shed, expired, draining,
    /// pong, metrics) — no future involved.
    std::string ready_payload;
    /// The request's trace (deferred finish): the writer thread appends
    /// the response_write span and seals it. Null when metrics are off or
    /// the request never reached the service.
    std::shared_ptr<obs::TraceContext> trace;
  };

  struct Conn {
    explicit Conn(size_t pipeline) : pending(pipeline) {}
    int fd = -1;
    std::shared_ptr<service::Session> session;
    service::BoundedQueue<std::unique_ptr<Pending>> pending;
    std::thread reader;
    std::thread writer;
    std::atomic<bool> stop{false};
    /// Loops still running (2 at spawn); 0 = reapable.
    std::atomic<int> live_loops{2};
  };

  Server(check::UFilter* filter, ServerOptions options, int listen_fd,
         uint16_t port);

  void AcceptLoop();
  void ReaderLoop(Conn* conn);
  void WriterLoop(Conn* conn);
  /// Dispatches one decoded payload; non-OK drops the connection.
  Status HandlePayload(Conn* conn, std::string payload);
  /// Joins and erases connections whose loops both exited.
  void ReapFinished();

  ServerOptions options_;
  std::unique_ptr<service::CheckService> service_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::thread accept_thread_;
  std::atomic<bool> stop_accept_{false};
  std::atomic<bool> draining_{false};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::mutex lifecycle_mu_;
  bool drained_ = false;

  // Transport counters, registered in the service's metric registry
  // (stable pointers owned by it) under server_<name>, so they are
  // scrapable alongside everything else.
  obs::Counter* connections_accepted_;
  /// Connections dropped for wire damage: bad magic, oversized or
  /// CRC-failing frames, undecodable or unknown messages.
  obs::Counter* protocol_errors_;
  obs::Counter* requests_;
  obs::Counter* responses_;
  /// Check requests whose deadline was already expired at admission.
  obs::Counter* admission_expired_;
  /// Check requests answered kDraining during graceful shutdown.
  obs::Counter* draining_rejects_;
  /// Apply requests answered kRedirectToPrimary (follower mode).
  obs::Counter* redirected_applies_;
};

}  // namespace ufilter::net

#endif  // UFILTER_NET_SERVER_H_
