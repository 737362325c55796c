#include "net/server.h"

#include <poll.h>

#include <condition_variable>
#include <deque>
#include <utility>

namespace ufilter::net {

namespace {

using check::CheckOutcome;
using check::CheckReport;
using service::AdmitResult;

constexpr int kIdlePollMs = 100;

Verdict VerdictFromOutcome(CheckOutcome outcome) {
  switch (outcome) {
    case CheckOutcome::kExecuted:
      return Verdict::kExecuted;
    case CheckOutcome::kInvalid:
      return Verdict::kInvalid;
    case CheckOutcome::kUntranslatable:
      return Verdict::kUntranslatable;
    case CheckOutcome::kDataConflict:
      return Verdict::kDataConflict;
    case CheckOutcome::kNotRun:
      return Verdict::kNotRun;
    case CheckOutcome::kDeadlineExceeded:
      return Verdict::kDeadlineExceeded;
  }
  return Verdict::kError;
}

CheckResponseMsg ResponseFromReport(uint64_t request_id,
                                    const CheckReport& report) {
  CheckResponseMsg msg;
  msg.request_id = request_id;
  msg.verdict = VerdictFromOutcome(report.outcome);
  msg.status_code = static_cast<uint8_t>(report.error.code());
  msg.message = report.error.message();
  msg.rows_affected = report.rows_affected;
  return msg;
}

CheckResponseMsg ServiceResponse(uint64_t request_id, Verdict verdict,
                                 Status status, uint32_t retry_after_ms) {
  CheckResponseMsg msg;
  msg.request_id = request_id;
  msg.verdict = verdict;
  msg.status_code = static_cast<uint8_t>(status.code());
  msg.message = status.message();
  msg.retry_after_ms = retry_after_ms;
  return msg;
}

}  // namespace

// The outbox holds one slot per request the reader has numbered, from the
// oldest response not yet written in full (head_seq_) to the newest. Every
// send happens under mu_ and after a check of failed_, so frames never
// interleave and, once the reader has closed the fd, a late completion can
// never write to a reused fd number.
class Server::Outbox : public service::Completion {
 public:
  Outbox(Server* server, int fd) : server_(server), fd_(fd) {}
  ~Outbox() override { CloseFd(fd_); }

  Outbox(const Outbox&) = delete;
  Outbox& operator=(const Outbox&) = delete;

  /// The socket; only the reader thread polls and reads it, and only
  /// before it calls Close.
  int fd() const { return fd_; }

  /// What the reader waits for next.
  struct State {
    size_t pending = 0;    ///< numbered responses not yet written in full
    bool blocked = false;  ///< the head response waits for socket room
    bool failed = false;   ///< dropped: nothing more will be written
  };

  /// Reader: the state now. A head response that has waited longer than
  /// write_timeout for socket room drops the connection here.
  State Poll() {
    std::lock_guard<std::mutex> lock(mu_);
    if (blocked_since_.has_value() &&
        std::chrono::steady_clock::now() - *blocked_since_ >=
            server_->options_.write_timeout) {
      FailLocked();
    }
    return State{slots_.size(), blocked_since_.has_value(), failed_};
  }

  /// Numbered responses not yet written in full.
  size_t pending() {
    std::lock_guard<std::mutex> lock(mu_);
    return slots_.size();
  }

  /// Reader: numbers the next request. `request_id` is what an admitted
  /// check's response will carry.
  uint64_t Reserve(uint64_t request_id) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failed_) return next_seq_++;
    slots_.emplace_back();
    slots_.back().request_id = request_id;
    return next_seq_++;
  }

  /// Reader: the immediate answer for slot `seq`.
  void Put(uint64_t seq, const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* slot = SlotLocked(seq);
    if (slot == nullptr) return;
    slot->frame = FramePayload(payload);
    slot->ready = true;
    WriteLocked();
  }

  /// Worker: the verdict for slot `seq`, written now if it is at the head
  /// of the line and the socket takes it.
  void Complete(uint64_t seq, CheckReport report,
                obs::TraceContext trace) override {
    std::lock_guard<std::mutex> lock(mu_);
    Slot* slot = SlotLocked(seq);
    if (slot == nullptr) {
      // The connection is gone: nothing to write, but the trace is sealed.
      server_->service_->tracer().Finish(trace);
      return;
    }
    if (trace.active()) slot->write_start = obs::TraceClock::now();
    slot->frame = FramePayload(
        EncodeCheckResponse(ResponseFromReport(slot->request_id, report)));
    slot->trace = std::move(trace);
    slot->ready = true;
    WriteLocked();
  }

  /// Reader, on POLLOUT: writes what the socket takes now.
  void Flush() {
    std::lock_guard<std::mutex> lock(mu_);
    WriteLocked();
  }

  /// Reader: waits up to `timeout` for fewer than `pending` responses to
  /// be left, for the head to block on the socket, or for the outbox to
  /// fail.
  void WaitForProgress(size_t pending, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    reader_waiting_ = true;
    progress_.wait_for(lock, timeout, [&] {
      return slots_.size() < pending || blocked_since_.has_value() ||
             failed_;
    });
    reader_waiting_ = false;
  }

  /// Reader: stops writing and discards every response not yet written.
  void Fail() {
    std::lock_guard<std::mutex> lock(mu_);
    FailLocked();
  }

  /// Reader, last: closes the fd. Later completions find the outbox
  /// failed and discard their responses.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    FailLocked();
    CloseFd(fd_);
    fd_ = -1;
  }

 private:
  struct Slot {
    uint64_t request_id = 0;
    bool ready = false;
    std::string frame;
    /// An admitted check's trace: the response_write span runs from
    /// write_start until the frame's last byte is sent, then it finishes.
    obs::TraceContext trace;
    obs::TraceClock::time_point write_start{};
  };

  Slot* SlotLocked(uint64_t seq) {
    if (failed_ || seq < head_seq_) return nullptr;
    return &slots_[seq - head_seq_];
  }

  // Writes ready responses from the head of the line until one is not
  // ready or the socket is full.
  void WriteLocked() {
    while (!failed_ && !slots_.empty() && slots_.front().ready) {
      Slot& head = slots_.front();
      while (head_sent_ < head.frame.size()) {
        auto n = SendNow(fd_, head.frame.data() + head_sent_,
                         head.frame.size() - head_sent_);
        if (!n.ok()) {
          FailLocked();  // the peer is gone
          return;
        }
        if (*n == 0) {
          if (!blocked_since_.has_value()) {
            blocked_since_ = std::chrono::steady_clock::now();
            if (reader_waiting_) progress_.notify_one();
          }
          return;
        }
        head_sent_ += *n;
      }
      server_->responses_->Inc();
      if (head.trace.active()) {
        auto written = obs::TraceClock::now();
        head.trace.RecordSpan(obs::Stage::kResponseWrite, head.write_start,
                              written);
        server_->service_->ObserveStage(
            obs::Stage::kResponseWrite,
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    written - head.write_start)
                    .count()));
        server_->service_->tracer().Finish(head.trace);
      }
      slots_.pop_front();
      ++head_seq_;
      head_sent_ = 0;
      blocked_since_.reset();
      if (reader_waiting_) progress_.notify_one();
    }
  }

  void FailLocked() {
    if (!failed_) {
      failed_ = true;
      for (Slot& slot : slots_) server_->service_->tracer().Finish(slot.trace);
      slots_.clear();
      head_seq_ = next_seq_;
      head_sent_ = 0;
      blocked_since_.reset();
    }
    if (reader_waiting_) progress_.notify_one();
  }

  Server* const server_;
  int fd_;

  std::mutex mu_;
  std::condition_variable progress_;
  std::deque<Slot> slots_;
  uint64_t head_seq_ = 0;
  uint64_t next_seq_ = 0;
  /// Bytes of the head frame already sent.
  size_t head_sent_ = 0;
  /// When the head response first found the socket full.
  std::optional<std::chrono::steady_clock::time_point> blocked_since_;
  bool reader_waiting_ = false;
  bool failed_ = false;
};

Result<std::unique_ptr<Server>> Server::Start(check::UFilter* filter,
                                              ServerOptions options) {
  auto listen = ListenTcp(options.port, options.backlog);
  if (!listen.ok()) return listen.status();
  auto port = LocalPort(*listen);
  if (!port.ok()) {
    CloseFd(*listen);
    return port.status();
  }
  std::unique_ptr<Server> server(
      new Server(filter, std::move(options), *listen, *port));
  if (!server->service_->durability_status().ok()) {
    Status st = server->service_->durability_status();
    return st;
  }
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

Server::Server(check::UFilter* filter, ServerOptions options, int listen_fd,
               uint16_t port)
    : options_(std::move(options)), listen_fd_(listen_fd), port_(port) {
  service_ = std::make_unique<service::CheckService>(filter, options_.service);
  obs::Registry& registry = service_->registry();
  connections_accepted_ = registry.GetCounter("server_connections_accepted");
  protocol_errors_ = registry.GetCounter("server_protocol_errors");
  requests_ = registry.GetCounter("server_requests");
  responses_ = registry.GetCounter("server_responses");
  admission_expired_ = registry.GetCounter("server_admission_expired");
  draining_rejects_ = registry.GetCounter("server_draining_rejects");
  redirected_applies_ = registry.GetCounter("server_redirected_applies");
}

Server::~Server() { Drain(); }

void Server::AcceptLoop() {
  while (!stop_accept_.load(std::memory_order_relaxed)) {
    ReapFinished();
    auto fd = AcceptWithTimeout(listen_fd_, kIdlePollMs);
    if (!fd.ok()) {
      if (fd.status().IsDeadlineExceeded()) continue;  // idle tick
      break;  // listener gone: drain in progress
    }
    connections_accepted_->Inc();
    auto conn = std::make_unique<Conn>();
    conn->outbox = std::make_shared<Outbox>(this, *fd);
    conn->session = service_->OpenSession();
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
  }
}

void Server::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn* c = it->get();
    if (c->finished.load(std::memory_order_acquire)) {
      // Its requests still queued in the service keep the outbox alive.
      if (c->reader.joinable()) c->reader.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ReaderLoop(Conn* conn) {
  Outbox& out = *conn->outbox;
  const int fd = out.fd();
  FrameReader frames(/*expect_magic=*/true, options_.max_frame_bytes);
  char buf[4096];
  bool protocol_error = false;
  // Cleared on EOF, wire damage or drain. After that the loop only
  // flushes: every admitted request is answered and flushed before the fd
  // closes, unless the client fails first (a stuck one after
  // write_timeout).
  bool reading = true;
  while (true) {
    if (conn->stop.load(std::memory_order_relaxed)) reading = false;
    // Decode what is buffered while the pipeline has room; the rest waits
    // in the frame reader (backpressure on this socket only).
    while (reading && out.pending() < options_.max_pipeline) {
      auto next = frames.Next();
      if (!next.ok()) {
        // Wire damage (bad magic, corrupt length, CRC mismatch): there is
        // no resynchronization point — stop reading this connection.
        protocol_error = true;
        reading = false;
        break;
      }
      if (!next->has_value()) break;  // torn mid-frame: wait for more bytes
      Status st = HandlePayload(conn, *std::move(*next));
      if (!st.ok()) {
        protocol_error = st.IsParseError();  // wire damage: counted
        reading = false;
      }
    }
    Outbox::State state = out.Poll();
    if (state.failed || (!reading && state.pending == 0)) break;
    bool room = reading && state.pending < options_.max_pipeline;
    if (!room && !state.blocked) {
      // The workers hold every response that is due next.
      out.WaitForProgress(state.pending,
                          std::chrono::milliseconds(kIdlePollMs));
      continue;
    }
    auto events = PollFd(fd, (room ? POLLIN : 0) | (state.blocked ? POLLOUT : 0),
                         kIdlePollMs);
    if (!events.ok()) break;
    // Any event on a blocked socket: room, or an error the send reports.
    if (state.blocked && *events != 0) out.Flush();
    if (room && (*events & (POLLIN | POLLHUP | POLLERR)) != 0) {
      auto got = RecvNow(fd, buf, sizeof(buf));
      if (got.ok() && *got > 0) {
        frames.Feed(buf, *got);
      } else if (got.ok()) {
        reading = false;  // EOF: answer what was sent, then close
      } else if (!got.status().IsDeadlineExceeded()) {
        out.Fail();  // reset: the peer is gone, and so are its responses
        break;
      }
    }
  }
  if (protocol_error) protocol_errors_->Inc();
  out.Close();
  conn->finished.store(true, std::memory_order_release);
}

Status Server::HandlePayload(Conn* conn, std::string payload) {
  auto type = PeekType(payload);
  if (!type.ok()) return type.status();
  Outbox& out = *conn->outbox;
  switch (*type) {
    case MsgType::kPing: {
      auto id = DecodePingPong(payload);
      if (!id.ok()) return id.status();
      out.Put(out.Reserve(0), EncodePong(*id));
      return Status::OK();
    }
    case MsgType::kMetricsRequest: {
      // The full registry scrape: one Collect(), encoded sparse. This is
      // what ufilter_metrics and the parity test in
      // tests/net/server_client_test.cc consume.
      out.Put(out.Reserve(0),
              EncodeMetricsResponse(
                  MetricsFromSnapshot(service_->registry().Collect())));
      return Status::OK();
    }
    case MsgType::kCheckRequest: {
      auto req = DecodeCheckRequest(payload);
      if (!req.ok()) return req.status();
      requests_->Inc();
      // Numbered before admission: a worker may finish it at once.
      uint64_t seq = out.Reserve(req->request_id);
      CheckResponseMsg answer;
      if (draining_.load(std::memory_order_relaxed)) {
        draining_rejects_->Inc();
        answer = ServiceResponse(req->request_id, Verdict::kDraining,
                                 Status::Unavailable("server is draining"),
                                 options_.drain_retry_after_ms);
      } else if (req->apply && !options_.redirect_primary.empty()) {
        // Follower mode: applies never run here — the caller must go to
        // the primary named in the message. Deliberately not retry-safe:
        // retrying the same follower would loop forever.
        redirected_applies_->Inc();
        answer = ServiceResponse(
            req->request_id, Verdict::kRedirectToPrimary,
            Status::InvalidArgument("read-only follower: apply this update "
                                    "against the primary at " +
                                    options_.redirect_primary),
            0);
      } else {
        std::optional<service::CheckService::SteadyTime> deadline;
        if (req->deadline_ms != kNoDeadlineMs) {
          deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(req->deadline_ms);
        }
        check::CheckOptions opts;
        opts.apply = req->apply;
        opts.strategy = static_cast<check::DataCheckStrategy>(req->strategy);
        // The worker that finishes it writes the response (Complete).
        AdmitResult admitted = service_->SubmitWithDeadline(
            conn->session, std::move(req->update_text), opts, deadline,
            conn->outbox, seq);
        switch (admitted) {
          case AdmitResult::kAdmitted:
            return Status::OK();
          case AdmitResult::kShed:
            answer = ServiceResponse(
                req->request_id, Verdict::kShed,
                Status::Unavailable("admission queue full (load shed)"),
                options_.shed_retry_after_ms);
            break;
          case AdmitResult::kExpired:
            admission_expired_->Inc();
            answer = ServiceResponse(
                req->request_id, Verdict::kDeadlineExceeded,
                Status::DeadlineExceeded("deadline expired at admission"), 0);
            break;
          case AdmitResult::kClosed:
            answer = ServiceResponse(
                req->request_id, Verdict::kDraining,
                Status::Unavailable("check service is shut down"),
                options_.drain_retry_after_ms);
            break;
        }
      }
      out.Put(seq, EncodeCheckResponse(answer));
      return Status::OK();
    }
    case MsgType::kCheckResponse:
    case MsgType::kPong:
    case MsgType::kMetricsResponse:
      return Status::ParseError("client sent a server-only message type");
    case MsgType::kReplSubscribe:
    case MsgType::kReplSnapshot:
    case MsgType::kReplRecords:
    case MsgType::kReplAck:
      // The replication plane has its own listener (net::ReplicationSource);
      // these never belong on the request/response port.
      return Status::ParseError("replication message on the request plane");
  }
  return Status::ParseError("unknown message type");
}

void Server::Drain() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (drained_) return;
  drained_ = true;

  // 1. Stop accepting; new requests on live connections get kDraining.
  draining_.store(true, std::memory_order_relaxed);
  stop_accept_.store(true, std::memory_order_relaxed);
  ShutdownFd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;

  // 2. Bounded wait for in-flight work: every admitted request either
  // finishes or hits its deadline (the workers purge expired ones), and
  // its outbox counts it until its response is written in full.
  auto grace_deadline = std::chrono::steady_clock::now() + options_.drain_grace;
  while (std::chrono::steady_clock::now() < grace_deadline) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& c : conns_) {
        if (c->outbox->pending() > 0) busy = true;
      }
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // 3. Stop the connections: each reader stops reading, waits until its
  // admitted requests are answered and flushed (or the client fails),
  // closes its socket and exits.
  std::vector<std::unique_ptr<Conn>> doomed;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) c->stop.store(true, std::memory_order_relaxed);
    doomed.swap(conns_);
  }
  for (auto& c : doomed) {
    if (c->reader.joinable()) c->reader.join();
  }

  // 4. Drain the check service (workers finish or deadline-expire what is
  // queued) and force the WAL to stable storage — its Shutdown ends with
  // a SyncWal barrier.
  if (service_) service_->Shutdown();
}

}  // namespace ufilter::net
