#include "net/client.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace ufilter::net {

namespace {

constexpr char kIndeterminate[] = "indeterminate apply";

}  // namespace

Client::Client(ClientOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {}

Client::~Client() { Disconnect(); }

void Client::Disconnect() {
  if (fd_ >= 0) {
    CloseFd(fd_);
    fd_ = -1;
  }
}

Status Client::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  auto fd = ConnectTcp(options_.host, options_.port, options_.connect_timeout);
  if (!fd.ok()) return fd.status();
  // Preamble: the 8-byte magic, so the server can reject non-protocol
  // peers before parsing a single frame.
  Status st = SendAll(*fd, kNetMagic, kNetMagicLen,
                      std::chrono::steady_clock::now() +
                          options_.connect_timeout);
  if (!st.ok()) {
    CloseFd(*fd);
    return st;
  }
  fd_ = *fd;
  ++metrics_.reconnects;
  return Status::OK();
}

std::chrono::milliseconds Client::BackoffDelay(int attempt,
                                               uint32_t floor_ms) {
  // Full jitter: uniform(0, min(base * 2^(attempt-1), max)), floored by
  // the server's advisory retry-after when one was given.
  int64_t ceil_ms = options_.backoff_base.count();
  for (int i = 1; i < attempt && ceil_ms < options_.backoff_max.count(); ++i) {
    ceil_ms *= 2;
  }
  ceil_ms = std::min<int64_t>(ceil_ms, options_.backoff_max.count());
  std::uniform_int_distribution<int64_t> dist(0, std::max<int64_t>(ceil_ms, 1));
  int64_t jittered = dist(jitter_);
  return std::chrono::milliseconds(
      std::max<int64_t>(jittered, static_cast<int64_t>(floor_ms)));
}

Result<std::string> Client::RoundTrip(const std::string& payload,
                                      uint64_t /*request_id*/, bool* sent) {
  *sent = false;
  Status conn = EnsureConnected();
  if (!conn.ok()) return conn;
  auto deadline = std::chrono::steady_clock::now() + options_.request_timeout;
  std::string frame = FramePayload(payload);
  // From here on bytes may reach the server: an apply whose response is
  // lost is indeterminate.
  *sent = true;
  Status send = SendAll(fd_, frame.data(), frame.size(), deadline);
  if (!send.ok()) return send;
  // Exactly one response frame per request, so a per-call reader never
  // strands bytes between calls.
  FrameReader frames(/*expect_magic=*/false, options_.max_frame_bytes);
  char buf[4096];
  while (true) {
    auto got = RecvSome(fd_, buf, sizeof(buf), deadline);
    if (!got.ok()) return got.status();
    frames.Feed(buf, *got);
    auto next = frames.Next();
    if (!next.ok()) return next.status();  // corrupt response stream
    if (next->has_value()) return *std::move(*next);
  }
}

Result<CheckResponseMsg> Client::Check(const std::string& update_text,
                                       bool apply) {
  ++metrics_.requests;
  Status last = Status::Unavailable("no attempt made");
  uint32_t retry_floor_ms = 0;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++metrics_.retries;
      std::this_thread::sleep_for(BackoffDelay(attempt, retry_floor_ms));
      retry_floor_ms = 0;
    }
    CheckRequestMsg req;
    req.request_id = next_request_id_++;
    req.deadline_ms =
        static_cast<uint32_t>(options_.request_timeout.count());
    req.apply = apply;
    req.update_text = update_text;
    bool sent = false;
    auto raw = RoundTrip(EncodeCheckRequest(req), req.request_id, &sent);
    Result<CheckResponseMsg> resp =
        raw.ok() ? DecodeCheckResponse(*raw) : raw.status();
    if (resp.ok() && resp->request_id != req.request_id) {
      resp = Status::ParseError("response for a different request id");
    }
    if (!resp.ok()) {
      // Transport or protocol failure: the connection is unusable either
      // way. Whether we may retry depends on what the server might have
      // seen: a request that never went out (connect refused) is always
      // safe; a lost response to a check-only request is safe (re-checking
      // is idempotent); a lost response to an *apply* is indeterminate —
      // the server may have executed it — and is never retried.
      Disconnect();
      last = resp.status();
      if (sent && apply) {
        ++metrics_.indeterminate;
        return Status::Unavailable(std::string(kIndeterminate) + ": " +
                                   last.ToString());
      }
      continue;
    }
    switch (resp->verdict) {
      case Verdict::kShed:
      case Verdict::kDraining:
        // The server refused before execution and suggested when to come
        // back; its retry-after floors our jittered backoff.
        ++metrics_.shed_seen;
        retry_floor_ms = resp->retry_after_ms;
        last = Status::Unavailable("server " +
                                   std::string(VerdictName(resp->verdict)) +
                                   ": " + resp->message);
        continue;
      case Verdict::kDeadlineExceeded:
        // Admission reject or queue purge: certified never-executed, so
        // retrying is safe even for an apply.
        ++metrics_.deadline_seen;
        last = Status::DeadlineExceeded("server deadline: " + resp->message);
        continue;
      default:
        return *std::move(resp);
    }
  }
  return last;
}

Status Client::Ping() {
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++metrics_.retries;
      std::this_thread::sleep_for(BackoffDelay(attempt, 0));
    }
    uint64_t id = next_request_id_++;
    bool sent = false;
    auto raw = RoundTrip(EncodePing(id), id, &sent);
    if (!raw.ok()) {
      Disconnect();
      last = raw.status();
      continue;  // pings are always idempotent
    }
    auto pong = DecodePingPong(*raw);
    if (pong.ok() && *pong == id) return Status::OK();
    Disconnect();
    last = pong.ok() ? Status::ParseError("pong id mismatch") : pong.status();
  }
  return last;
}

Result<MetricsMsg> Client::Metrics() {
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++metrics_.retries;
      std::this_thread::sleep_for(BackoffDelay(attempt, 0));
    }
    bool sent = false;
    auto raw = RoundTrip(EncodeMetricsRequest(), 0, &sent);
    if (!raw.ok()) {
      Disconnect();
      last = raw.status();
      continue;  // metric scrapes are idempotent
    }
    auto metrics = DecodeMetricsResponse(*raw);
    if (metrics.ok()) return *std::move(metrics);
    Disconnect();
    last = metrics.status();
  }
  return last;
}

}  // namespace ufilter::net
