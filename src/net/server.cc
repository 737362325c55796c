#include "net/server.h"

#include <utility>

namespace ufilter::net {

namespace {

using check::CheckOutcome;
using check::CheckReport;
using service::AdmitResult;
using service::QueueWaitResult;

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
    auto conn = std::make_unique<Conn>(options_.max_pipeline);
    conn->fd = *fd;
    conn->session = service_->OpenSession();
    Conn* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
    raw->writer = std::thread([this, raw] { WriterLoop(raw); });
  }
}

void Server::ReapFinished() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Conn* c = it->get();
    if (c->live_loops.load(std::memory_order_acquire) == 0) {
      if (c->reader.joinable()) c->reader.join();
      if (c->writer.joinable()) c->writer.join();
      CloseFd(c->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ReaderLoop(Conn* conn) {
  FrameReader frames(/*expect_magic=*/true, options_.max_frame_bytes);
  char buf[4096];
  bool protocol_error = false;
  while (!conn->stop.load(std::memory_order_relaxed)) {
    auto got = RecvSome(conn->fd, buf, sizeof(buf),
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(kIdlePollMs));
    if (!got.ok()) {
      if (got.status().IsDeadlineExceeded()) continue;  // idle tick
      break;  // peer gone (EOF / reset) — normal for a severed client
    }
    frames.Feed(buf, *got);
    bool drop = false;
    while (true) {
      auto next = frames.Next();
      if (!next.ok()) {
        // Wire damage (bad magic, corrupt length, CRC mismatch): there is
        // no resynchronization point — drop this connection only.
        protocol_error = true;
        drop = true;
        break;
      }
      if (!next->has_value()) break;  // torn mid-frame: wait for more bytes
      Status st = HandlePayload(conn, *std::move(*next));
      if (!st.ok()) {
        // ParseError = wire damage (counted); anything else (e.g. the
        // connection closing under us mid-drain) is a quiet drop.
        protocol_error = st.IsParseError();
        drop = true;
        break;
      }
    }
    if (drop) break;
  }
  if (protocol_error) protocol_errors_->Inc();
  conn->stop.store(true, std::memory_order_relaxed);
  // Writer drains whatever is still pending (futures resolve via the
  // service), then exits on the closed-and-drained signal.
  conn->pending.Close();
  conn->live_loops.fetch_sub(1, std::memory_order_release);
}

Status Server::HandlePayload(Conn* conn, std::string payload) {
  auto type = PeekType(payload);
  if (!type.ok()) return type.status();
  auto pending = std::make_unique<Pending>();
  switch (*type) {
    case MsgType::kPing: {
      auto id = DecodePingPong(payload);
      if (!id.ok()) return id.status();
      pending->ready_payload = EncodePong(*id);
      break;
    }
    case MsgType::kMetricsRequest: {
      // The full registry scrape: one Collect(), encoded sparse. This is
      // what ufilter_metrics and the parity test in
      // tests/net/server_client_test.cc consume.
      pending->ready_payload = EncodeMetricsResponse(
          MetricsFromSnapshot(service_->registry().Collect()));
      break;
    }
    case MsgType::kCheckRequest: {
      auto req = DecodeCheckRequest(payload);
      if (!req.ok()) return req.status();
      requests_->Inc();
      pending->request_id = req->request_id;
      if (draining_.load(std::memory_order_relaxed)) {
        draining_rejects_->Inc();
        pending->ready_payload = EncodeCheckResponse(ServiceResponse(
            req->request_id, Verdict::kDraining,
            Status::Unavailable("server is draining"),
            options_.drain_retry_after_ms));
        break;
      }
      if (req->apply && !options_.redirect_primary.empty()) {
        // Follower mode: applies never run here — the caller must go to
        // the primary named in the message. Deliberately not retry-safe:
        // retrying the same follower would loop forever.
        redirected_applies_->Inc();
        pending->ready_payload = EncodeCheckResponse(ServiceResponse(
            req->request_id, Verdict::kRedirectToPrimary,
            Status::InvalidArgument("read-only follower: apply this update "
                                    "against the primary at " +
                                    options_.redirect_primary),
            0));
        break;
      }
      std::optional<service::CheckService::SteadyTime> deadline;
      if (req->deadline_ms != kNoDeadlineMs) {
        deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(req->deadline_ms);
      }
      check::CheckOptions opts;
      opts.apply = req->apply;
      opts.strategy = static_cast<check::DataCheckStrategy>(req->strategy);
      // Born here, before admission, so queue-wait is inside the trace;
      // finished by the writer thread after the response write.
      std::shared_ptr<obs::TraceContext> trace = service_->StartTrace();
      std::future<CheckReport> future;
      AdmitResult admitted = service_->SubmitWithDeadline(
          conn->session, std::move(req->update_text), opts, deadline,
          &future, trace);
      switch (admitted) {
        case AdmitResult::kAdmitted:
          pending->has_future = true;
          pending->future = std::move(future);
          pending->trace = std::move(trace);
          break;
        case AdmitResult::kShed:
          pending->ready_payload = EncodeCheckResponse(ServiceResponse(
              req->request_id, Verdict::kShed,
              Status::Unavailable("admission queue full (load shed)"),
              options_.shed_retry_after_ms));
          break;
        case AdmitResult::kExpired:
          admission_expired_->Inc();
          pending->ready_payload = EncodeCheckResponse(ServiceResponse(
              req->request_id, Verdict::kDeadlineExceeded,
              Status::DeadlineExceeded("deadline expired at admission"), 0));
          break;
        case AdmitResult::kClosed:
          pending->ready_payload = EncodeCheckResponse(ServiceResponse(
              req->request_id, Verdict::kDraining,
              Status::Unavailable("check service is shut down"),
              options_.drain_retry_after_ms));
          break;
      }
      break;
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
  // Blocks when max_pipeline responses are unanswered: per-connection
  // backpressure. Refused only when the connection is already closing.
  if (!conn->pending.Push(std::move(pending))) {
    return Status::Unavailable("connection closing");
  }
  return Status::OK();
}

void Server::WriterLoop(Conn* conn) {
  bool write_failed = false;
  std::unique_ptr<Pending> p;
  while (true) {
    QueueWaitResult got =
        conn->pending.PopFor(&p, std::chrono::steady_clock::now() +
                                     std::chrono::milliseconds(kIdlePollMs));
    if (got == QueueWaitResult::kClosed) break;
    if (got == QueueWaitResult::kTimedOut) continue;
    std::string payload;
    if (p->has_future) {
      // Resolves unconditionally: a worker executes it, purges it at its
      // deadline, or the service drain finishes it.
      CheckReport report = p->future.get();
      payload = EncodeCheckResponse(ResponseFromReport(p->request_id, report));
    } else {
      payload = std::move(p->ready_payload);
    }
    if (write_failed) {
      // Drain mode: discard, keep futures resolved — but still seal any
      // deferred trace so sampled traces aren't leaked half-open.
      if (p->trace != nullptr) service_->tracer().Finish(*p->trace);
      continue;
    }
    std::string frame = FramePayload(payload);
    auto write_start = std::chrono::steady_clock::now();
    Status st = SendAll(conn->fd, frame.data(), frame.size(),
                        write_start + options_.write_timeout);
    if (!st.ok()) {
      // Slow or dead client: stop reading from it and discard the rest of
      // its responses — but keep popping so admitted futures resolve.
      write_failed = true;
      conn->stop.store(true, std::memory_order_relaxed);
    } else {
      responses_->Inc();
    }
    if (p->trace != nullptr) {
      // The last span of the request's trace, then the deferred finish
      // (fixes total_ns = decode -> response written).
      auto write_end = std::chrono::steady_clock::now();
      p->trace->RecordSpan(obs::Stage::kResponseWrite, write_start, write_end);
      service_->ObserveStage(
          obs::Stage::kResponseWrite,
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  write_end - write_start)
                  .count()));
      service_->tracer().Finish(*p->trace);
    }
  }
  conn->live_loops.fetch_sub(1, std::memory_order_release);
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
  // every response gets flushed.
  auto grace_deadline = std::chrono::steady_clock::now() + options_.drain_grace;
  while (std::chrono::steady_clock::now() < grace_deadline) {
    bool busy = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& c : conns_) {
        if (c->pending.size() > 0) busy = true;
      }
    }
    if (!busy) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // 3. Stop the connections: readers exit on the flag, writers flush the
  // remaining pending responses, then everything joins.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& c : conns_) {
      c->stop.store(true, std::memory_order_relaxed);
      c->pending.Close();
    }
  }
  std::vector<std::unique_ptr<Conn>> doomed;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    doomed.swap(conns_);
  }
  for (auto& c : doomed) {
    if (c->reader.joinable()) c->reader.join();
    if (c->writer.joinable()) c->writer.join();
    ShutdownFd(c->fd);
    CloseFd(c->fd);
  }

  // 4. Drain the check service (workers finish or deadline-expire what is
  // queued) and force the WAL to stable storage — its Shutdown ends with
  // a SyncWal barrier.
  if (service_) service_->Shutdown();
}

}  // namespace ufilter::net
