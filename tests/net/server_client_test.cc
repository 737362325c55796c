// End-to-end tests of the network front end against a live TCP server:
// verdict parity with the in-process checker, deadline admission /
// queue-purge behavior, load shedding with retry-after, graceful drain,
// per-connection protocol-error isolation, the response-order, slow-client
// and fd-reuse rules of a connection's outbox, and the metrics scrape over
// the wire (the series contract its readers depend on).
#include "net/server.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/check_oracle.h"
#include "../support/temp_dir.h"
#include "fixtures/bookdb.h"
#include "fixtures/synthetic.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ufilter::net {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;
using relational::Database;

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
};

Instance MakeBookInstance() {
  Instance inst;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

Instance MakeChainInstance(int depth, int rows) {
  Instance inst;
  auto db = fixtures::MakeChainDatabase(depth, rows,
                                        relational::DeletePolicy::kCascade);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::ChainViewQuery(depth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

Verdict ExpectedVerdict(CheckOutcome outcome) {
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

/// One series of the server's in-process scrape.
uint64_t Series(Server& server, const std::string& name) {
  return obs::SampleValue(server.service().registry().Collect(), name);
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions opts;
  opts.port = server.port();
  return opts;
}

/// Frame-level connection for tests that need pipelining or bad bytes —
/// things the Client (correctly) refuses to do.
struct RawConn {
  int fd = -1;
  FrameReader frames;

  static RawConn Open(uint16_t port, bool send_magic = true) {
    RawConn conn;
    auto fd = ConnectTcp("127.0.0.1", port, std::chrono::milliseconds(1000));
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    conn.fd = *fd;
    if (send_magic) {
      Status st = SendAll(conn.fd, kNetMagic, kNetMagicLen,
                          std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(1000));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    return conn;
  }

  Status Send(const std::string& payload) {
    std::string frame = FramePayload(payload);
    return SendAll(fd, frame.data(), frame.size(),
                   std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(2000));
  }

  Result<std::string> Recv(std::chrono::milliseconds timeout =
                               std::chrono::milliseconds(5000)) {
    auto deadline = std::chrono::steady_clock::now() + timeout;
    char buf[4096];
    while (true) {
      auto next = frames.Next();
      if (!next.ok()) return next.status();
      if (next->has_value()) return *std::move(*next);
      auto got = RecvSome(fd, buf, sizeof(buf), deadline);
      if (!got.ok()) return got.status();
      frames.Feed(buf, *got);
    }
  }

  void Close() {
    if (fd >= 0) {
      CloseFd(fd);
      fd = -1;
    }
  }
  ~RawConn() { Close(); }
};

// --- Verdict parity -------------------------------------------------------

TEST(ServerClientTest, CheckVerdictsMatchInProcessBaseline) {
  std::vector<std::string> updates;
  for (int u = 1; u <= 13; ++u) updates.push_back(fixtures::PaperUpdate(u));
  updates.push_back("THIS IS NOT AN UPDATE");

  CheckOptions dry;
  dry.apply = false;

  // The baseline executes each update and rolls it back.
  Instance baseline = MakeBookInstance();
  std::vector<CheckReport> expected;
  for (const std::string& u : updates) {
    expected.push_back(
        test_support::CheckByExecution(baseline.uf.get(), u, dry));
  }

  Instance inst = MakeBookInstance();
  ServerOptions opts;
  opts.service.worker_threads = 2;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(ClientFor(**server));
  for (size_t i = 0; i < updates.size(); ++i) {
    auto resp = client.Check(updates[i], /*apply=*/false);
    ASSERT_TRUE(resp.ok()) << updates[i] << ": " << resp.status().ToString();
    EXPECT_EQ(resp->verdict, ExpectedVerdict(expected[i].outcome))
        << updates[i];
    EXPECT_EQ(resp->status_code,
              static_cast<uint8_t>(expected[i].error.code()))
        << updates[i];
    EXPECT_EQ(resp->rows_affected, expected[i].rows_affected) << updates[i];
  }
  EXPECT_EQ(client.metrics().requests, updates.size());
  EXPECT_EQ(client.metrics().indeterminate, 0u);
}

TEST(ServerClientTest, AppliesExecuteOverTheWire) {
  Instance inst = MakeChainInstance(3, 32);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  Client client(ClientFor(**server));
  auto resp =
      client.Check(fixtures::ChainReplaceUpdate(1, 5, "net-applied"), true);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  EXPECT_GT(resp->rows_affected, 0);

  auto scrape = client.Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  ASSERT_NE(scrape->Find("service_writer_lane"), nullptr);
  ASSERT_NE(scrape->Find("db_commit_epoch"), nullptr);
  EXPECT_GE(scrape->Find("service_writer_lane")->value, 1u);
  EXPECT_GE(scrape->Find("db_commit_epoch")->value, 1u);
}

// --- Deadlines ------------------------------------------------------------

TEST(ServerClientTest, ExpiredDeadlineRejectedAtAdmission) {
  Instance inst = MakeBookInstance();
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RawConn conn = RawConn::Open((*server)->port());
  CheckRequestMsg req;
  req.request_id = 1;
  req.deadline_ms = 0;  // expired the moment the server rebases it
  req.apply = true;     // still safe: admission certifies nothing ran
  req.update_text = fixtures::PaperUpdate(1);
  ASSERT_TRUE(conn.Send(EncodeCheckRequest(req)).ok());

  auto raw = conn.Recv();
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeCheckResponse(*raw);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 1u);
  EXPECT_EQ(resp->verdict, Verdict::kDeadlineExceeded);

  EXPECT_GE(Series(**server, "server_admission_expired"), 1u);
  EXPECT_GE(Series(**server, "service_deadline_expired"), 1u);
}

TEST(ServerClientTest, OverloadShedsAndPurgesQueuedDeadlines) {
  // One worker that holds the writer lane 300ms per apply, a queue of one:
  // pipelined applies with 40ms budgets must come back shed (queue full
  // past the budget) or deadline-expired (purged before execution) — and
  // the server must stay up and answer every single one.
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.service.queue_capacity = 1;
  opts.service.writer_lane_hold_ms_for_testing = 300;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr int kRequests = 8;
  RawConn conn = RawConn::Open((*server)->port());
  for (int i = 0; i < kRequests; ++i) {
    CheckRequestMsg req;
    req.request_id = static_cast<uint64_t>(i + 1);
    req.deadline_ms = 40;
    req.apply = true;
    req.update_text = fixtures::ChainReplaceUpdate(1, 1, "storm");
    ASSERT_TRUE(conn.Send(EncodeCheckRequest(req)).ok());
  }

  int shed = 0, expired = 0, executed = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto raw = conn.Recv(std::chrono::milliseconds(10000));
    ASSERT_TRUE(raw.ok()) << "response " << i << ": "
                          << raw.status().ToString();
    auto resp = DecodeCheckResponse(*raw);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    switch (resp->verdict) {
      case Verdict::kShed:
        ++shed;
        EXPECT_GT(resp->retry_after_ms, 0u);
        break;
      case Verdict::kDeadlineExceeded:
        ++expired;
        break;
      case Verdict::kExecuted:
        ++executed;
        break;
      default:
        FAIL() << "unexpected verdict " << VerdictName(resp->verdict) << ": "
               << resp->message;
    }
  }
  EXPECT_EQ(shed + expired + executed, kRequests);
  // The first request executes; with a 300ms hold against 40ms budgets at
  // least one later request must have been refused one way or the other.
  EXPECT_GE(shed + expired, 1) << "shed=" << shed << " expired=" << expired;

  // Both forms of refusal are observable in the service counters.
  EXPECT_GE(Series(**server, "service_shed") +
                Series(**server, "service_deadline_expired"),
            1u);
}

// --- Graceful drain -------------------------------------------------------

TEST(ServerClientTest, DrainFinishesInFlightAndRejectsNewWork) {
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.service.writer_lane_hold_ms_for_testing = 400;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // A slow apply in flight keeps the drain in its grace loop.
  RawConn busy = RawConn::Open((*server)->port());
  CheckRequestMsg slow;
  slow.request_id = 1;
  slow.apply = true;
  slow.update_text = fixtures::ChainReplaceUpdate(1, 2, "before-drain");
  ASSERT_TRUE(busy.Send(EncodeCheckRequest(slow)).ok());

  // A second connection established *before* the listener closes.
  RawConn late = RawConn::Open((*server)->port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::thread drainer([&] { (*server)->Drain(); });
  while (!(*server)->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // New work on the surviving connection: refused with kDraining.
  CheckRequestMsg rejected;
  rejected.request_id = 2;
  rejected.update_text = fixtures::ChainReplaceUpdate(1, 3, "during-drain");
  Verdict late_verdict = Verdict::kError;
  if (late.Send(EncodeCheckRequest(rejected)).ok()) {
    auto raw = late.Recv();
    if (raw.ok()) {
      auto resp = DecodeCheckResponse(*raw);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      late_verdict = resp->verdict;
    }
  }

  // The in-flight apply still completes and its response is flushed.
  auto raw = busy.Recv(std::chrono::milliseconds(10000));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeCheckResponse(*raw);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 1u);
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;

  drainer.join();
  if (late_verdict != Verdict::kError) {
    EXPECT_EQ(late_verdict, Verdict::kDraining);
    EXPECT_GE(Series(**server, "server_draining_rejects"), 1u);
  }

  // The listener is gone: new connections are refused.
  auto refused =
      ConnectTcp("127.0.0.1", (*server)->port(), std::chrono::milliseconds(200));
  EXPECT_FALSE(refused.ok());
}

// --- Response order and slow clients ------------------------------------

/// A check request frame's payload.
std::string CheckPayload(uint64_t id, const std::string& text, bool apply) {
  CheckRequestMsg req;
  req.request_id = id;
  req.apply = apply;
  req.update_text = text;
  return EncodeCheckRequest(req);
}

// Responses leave a connection in request order whoever finishes them:
// here a Ping and a Metrics request, answered at once, wait behind a check
// and a writer-lane apply held for 200ms.
TEST(ServerClientTest, PipelinedResponsesKeepRequestOrder) {
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  opts.service.writer_lane_hold_ms_for_testing = 200;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RawConn conn = RawConn::Open((*server)->port());
  ASSERT_TRUE(conn.Send(CheckPayload(
                            1, fixtures::ChainReplaceUpdate(1, 1, "ordered"),
                            /*apply=*/true))
                  .ok());
  ASSERT_TRUE(
      conn.Send(CheckPayload(2, fixtures::ChainDeleteUpdate(1, 2), false))
          .ok());
  ASSERT_TRUE(conn.Send(EncodePing(3)).ok());
  ASSERT_TRUE(conn.Send(EncodeMetricsRequest()).ok());

  for (uint64_t id = 1; id <= 2; ++id) {
    auto raw = conn.Recv();
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    auto resp = DecodeCheckResponse(*raw);
    ASSERT_TRUE(resp.ok()) << "response " << id << " is not a check response";
    EXPECT_EQ(resp->request_id, id);
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }
  auto pong = conn.Recv();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  ASSERT_EQ(PeekType(*pong).value(), MsgType::kPong);
  EXPECT_EQ(DecodePingPong(*pong).value(), 3u);
  auto metrics = conn.Recv();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(PeekType(*metrics).value(), MsgType::kMetricsResponse);
}

// A client that stops reading holds no worker: with one worker, the
// responses to its checks wait in its connection while a second client's
// checks complete, and the connection is dropped once its next response
// has waited write_timeout for socket room.
TEST(ServerClientTest, StuckClientHoldsNoWorkerAndIsDropped) {
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.max_pipeline = 4096;
  opts.write_timeout = std::chrono::milliseconds(2000);
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  RawConn stuck = RawConn::Open((*server)->port());
  // A fixed receive buffer, so the fill below does not depend on
  // autotuning. It stays above the loopback MSS (64 KiB): a smaller window
  // makes the final read crawl through zero-window probes.
  int rcvbuf = 128 * 1024;
  ASSERT_EQ(::setsockopt(stuck.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         sizeof(rcvbuf)),
            0);
  // Metrics responses (the full registry each) until the server's writes
  // stall: it has read them all, but stopped getting responses out.
  uint64_t sent = 0;
  bool stalled = false;
  while (!stalled && sent < 20000) {
    for (int i = 0; i < 64; ++i, ++sent) {
      ASSERT_TRUE(stuck.Send(EncodeMetricsRequest()).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    uint64_t written = Series(**server, "server_responses");
    if (written + 32 < sent) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      stalled = Series(**server, "server_responses") == written;
    }
  }
  ASSERT_TRUE(stalled) << "the server wrote all " << sent << " responses";
  auto stall_seen = std::chrono::steady_clock::now();

  // Checks on the stuck connection: the one worker finishes all four.
  const uint64_t completed = Series(**server, "service_completed");
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(stuck
                    .Send(CheckPayload(id, fixtures::ChainDeleteUpdate(1, 1),
                                       false))
                    .ok());
  }
  auto start = std::chrono::steady_clock::now();
  while (Series(**server, "service_completed") < completed + 4 &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(Series(**server, "service_completed"), completed + 4);
  // Meanwhile a second client is served by the same worker.
  Client client(ClientFor(**server));
  for (int i = 0; i < 8; ++i) {
    auto resp = client.Check(fixtures::ChainDeleteUpdate(1, i), false);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000))
      << "a worker waited on the stuck client's socket";

  // Past write_timeout the server closes the stuck connection: reading it
  // now ends in EOF or a reset, not in silence.
  std::this_thread::sleep_until(stall_seen + opts.write_timeout +
                                std::chrono::milliseconds(1000));
  char buf[65536];
  Status end = Status::OK();
  auto read_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (end.ok()) {
    auto got = RecvSome(stuck.fd, buf, sizeof(buf), read_deadline);
    if (!got.ok()) end = got.status();
  }
  EXPECT_TRUE(end.IsUnavailable()) << end.ToString();
}

// A connection closed with requests still queued behind a held writer
// lane: their late verdicts are dropped, and a new connection (which may
// get the same fd number) receives only its own responses.
TEST(ServerClientTest, LateResponsesNeverReachANewConnection) {
  Instance inst = MakeChainInstance(2, 16);
  ServerOptions opts;
  opts.service.worker_threads = 1;
  opts.service.writer_lane_hold_ms_for_testing = 150;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  {
    RawConn old = RawConn::Open((*server)->port());
    for (uint64_t id = 101; id <= 103; ++id) {
      ASSERT_TRUE(old.Send(CheckPayload(
                               id, fixtures::ChainReplaceUpdate(1, 1, "late"),
                               /*apply=*/true))
                      .ok());
    }
    auto start = std::chrono::steady_clock::now();
    while (Series(**server, "server_requests") < 3 &&
           std::chrono::steady_clock::now() - start <
               std::chrono::seconds(10)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(Series(**server, "server_requests"), 3u);
    // Abort with a reset: the server sees the peer gone at once.
    linger abort_close{1, 0};
    ASSERT_EQ(::setsockopt(old.fd, SOL_SOCKET, SO_LINGER, &abort_close,
                           sizeof(abort_close)),
              0);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  RawConn fresh = RawConn::Open((*server)->port());
  ASSERT_TRUE(fresh.Send(EncodePing(7)).ok());
  ASSERT_TRUE(
      fresh.Send(CheckPayload(8, fixtures::ChainDeleteUpdate(1, 2), false))
          .ok());
  auto pong = fresh.Recv();
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  ASSERT_EQ(PeekType(*pong).value(), MsgType::kPong);
  EXPECT_EQ(DecodePingPong(*pong).value(), 7u);
  auto raw = fresh.Recv(std::chrono::milliseconds(10000));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto resp = DecodeCheckResponse(*raw);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->request_id, 8u);
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  // Nothing else arrives: the old connection's verdicts went nowhere.
  auto stray = fresh.Recv(std::chrono::milliseconds(300));
  EXPECT_FALSE(stray.ok());
  EXPECT_TRUE(stray.status().IsDeadlineExceeded()) << stray.status().ToString();
}

// A wire request's trace ends with its response write: response_write is
// the last span and in its stage histogram, total_ns covers it, and the
// spans of one lane never overlap.
TEST(ServerClientTest, WireTracesEndWithTheResponseWrite) {
  Instance inst = MakeChainInstance(3, 32);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  opts.service.trace.sample_every = 1;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr uint64_t kChecks = 6;
  Client client(ClientFor(**server));
  for (uint64_t i = 0; i < kChecks; ++i) {
    auto resp = client.Check(fixtures::ChainDeleteUpdate(2, i), false);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  // The trace finishes just after the last byte is sent, which can be
  // after the client has read it.
  obs::Tracer& tracer = (*server)->service().tracer();
  auto start = std::chrono::steady_clock::now();
  while (tracer.sampled_count() < kChecks &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::vector<obs::CompletedTrace> traces = tracer.Snapshot();
  ASSERT_EQ(traces.size(), kChecks);
  for (const obs::CompletedTrace& t : traces) {
    ASSERT_FALSE(t.spans.empty());
    const obs::TraceSpan& last = t.spans.back();
    EXPECT_EQ(last.stage, obs::Stage::kResponseWrite);
    EXPECT_GE(t.total_ns, last.start_ns + last.dur_ns);
    for (size_t i = 0; i < t.spans.size(); ++i) {
      for (size_t j = i + 1; j < t.spans.size(); ++j) {
        const obs::TraceSpan& a = t.spans[i];
        const obs::TraceSpan& b = t.spans[j];
        if (a.lane != b.lane) continue;
        EXPECT_TRUE(a.start_ns + a.dur_ns <= b.start_ns ||
                    b.start_ns + b.dur_ns <= a.start_ns)
            << "request " << t.request_id << ": "
            << obs::StageName(a.stage) << " overlaps "
            << obs::StageName(b.stage) << " on lane " << a.lane;
      }
    }
  }
  obs::RegistrySnapshot scrape = (*server)->service().registry().Collect();
  const obs::MetricSample* write_hist =
      obs::FindSample(scrape, "stage_response_write_ns");
  ASSERT_NE(write_hist, nullptr);
  EXPECT_EQ(write_hist->hist.count, kChecks);
}

// --- Protocol damage ------------------------------------------------------

TEST(ServerClientTest, BadMagicDropsOnlyThatConnection) {
  Instance inst = MakeBookInstance();
  auto server = Server::Start(inst.uf.get());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  {
    RawConn bad = RawConn::Open((*server)->port(), /*send_magic=*/false);
    const char junk[] = "NOTMAGIC";
    ASSERT_TRUE(SendAll(bad.fd, junk, 8,
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(1000))
                    .ok());
    // The server hangs up on us without a response.
    char buf[16];
    auto got = RecvSome(bad.fd, buf, sizeof(buf),
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5000));
    EXPECT_FALSE(got.ok());
    EXPECT_TRUE(got.status().IsUnavailable()) << got.status().ToString();
  }

  // Well-behaved clients are unaffected.
  Client client(ClientFor(**server));
  EXPECT_TRUE(client.Ping().ok());
  const uint64_t errors = Series(**server, "server_protocol_errors");
  EXPECT_GE(errors, 1u);

  // A retired type byte (5, the old stats request) is wire damage too:
  // dropped without an answer, counted once, and only that connection.
  {
    RawConn retired = RawConn::Open((*server)->port());
    ASSERT_TRUE(retired.Send(std::string(1, '\x05')).ok());
    auto got = retired.Recv();
    EXPECT_FALSE(got.ok()) << "the server answered a retired message type";
  }
  EXPECT_EQ(Series(**server, "server_protocol_errors"), errors + 1);
  auto resp = client.Check(fixtures::PaperUpdate(1), /*apply=*/false);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  auto scrape = client.Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  ASSERT_NE(scrape->Find("server_protocol_errors"), nullptr);
  EXPECT_EQ(scrape->Find("server_protocol_errors")->value, errors + 1);
}

// --- Full registry over the wire -----------------------------------------

/// The series contract: every series the benchmark (perfbench/) and CI's
/// live scrapes read by name, with its kind, plus the undo-record engine
/// counter that CI only checks for presence.
/// Readers treat a missing series as 0, so a rename fails nowhere else.
/// (CI's follower-only repl_* / replication_lag_* series are pinned in
/// tests/net/replication_test.cc, where a follower exists. perfbench still
/// reads service_escalations, which is gone since no check takes the
/// writer lane: it reads 0, as it should.)
struct SeriesContract {
  const char* name;
  obs::MetricKind kind;
};
constexpr SeriesContract kSeriesContract[] = {
    {"columnar_builds", obs::MetricKind::kCounter},
    {"db_commit_epoch", obs::MetricKind::kGauge},
    {"engine_index_lookups", obs::MetricKind::kCounter},
    {"engine_rows_inserted", obs::MetricKind::kCounter},
    {"engine_rows_scanned", obs::MetricKind::kCounter},
    {"engine_undo_records", obs::MetricKind::kCounter},
    {"mvcc_versions_retired", obs::MetricKind::kCounter},
    {"plan_cache_hits", obs::MetricKind::kCounter},
    {"plan_cache_misses", obs::MetricKind::kCounter},
    {"server_connections_accepted", obs::MetricKind::kCounter},
    {"service_completed", obs::MetricKind::kCounter},
    {"service_fast_path", obs::MetricKind::kCounter},
    {"service_writer_lane", obs::MetricKind::kCounter},
    {"service_writer_wait_ns", obs::MetricKind::kCounter},
    {"stage_queue_wait_ns", obs::MetricKind::kHistogram},
    {"wal_bytes", obs::MetricKind::kCounter},
    {"wal_fsyncs", obs::MetricKind::kCounter},
    {"wal_records", obs::MetricKind::kCounter},
};

/// No name appears twice (Collect() sorts by name, so duplicates are
/// adjacent).
void ExpectUniqueNames(const obs::RegistrySnapshot& snap, const char* where) {
  auto dup = std::adjacent_find(
      snap.begin(), snap.end(),
      [](const obs::MetricSample& a, const obs::MetricSample& b) {
        return a.name == b.name;
      });
  EXPECT_TRUE(dup == snap.end()) << where << ": " << dup->name << " twice";
}

/// Every contract series is present with its kind, each name once.
void ExpectSeriesContract(const obs::RegistrySnapshot& snap,
                          const char* where) {
  for (const SeriesContract& c : kSeriesContract) {
    const obs::MetricSample* s = obs::FindSample(snap, c.name);
    ASSERT_NE(s, nullptr) << where << ": " << c.name;
    EXPECT_EQ(s->kind, c.kind) << where << ": " << c.name;
  }
  ExpectUniqueNames(snap, where);
}

// The parity acceptance: a remote Client::Metrics() scrape must agree with
// the in-process registry Collect() — including the database registry's
// series (WAL, columnar, plan cache, MVCC) and the latency histograms —
// and hold the series contract above.
TEST(ServerClientTest, MetricsParityOverWire) {
  test_support::TempDir tmp("net_metrics");
  ASSERT_TRUE(tmp.ok());
  Instance inst = MakeChainInstance(3, 32);
  ServerOptions opts;
  opts.service.worker_threads = 2;
  opts.service.durability.wal_path = tmp.path("parity.wal");
  // Fsync per commit so wal_fsyncs is deterministically nonzero at scrape
  // time (kGroup would defer it to the shutdown barrier).
  opts.service.durability.fsync_policy = relational::FsyncPolicy::kAlways;
  auto server = Server::Start(inst.uf.get(), opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->service().durability_status().ok());

  Client client(ClientFor(**server));
  // Traffic that exercises every counter family: checks (columnar scans,
  // plan cache) and applies (writer lane, WAL records + fsyncs). The
  // i % 3 cycle repeats each delete text once — the plan-cache key is the
  // whitespace-normalized text, so only an exact repeat can hit.
  for (int i = 0; i < 6; ++i) {
    auto resp = client.Check(fixtures::ChainDeleteUpdate(2, i % 3), false);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }
  for (int i = 0; i < 2; ++i) {
    auto resp = client.Check(
        fixtures::ChainReplaceUpdate(2, i, "metrics-apply"), true);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }

  auto wire = client.Metrics();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  obs::RegistrySnapshot remote = SnapshotFromMetrics(*wire);
  obs::RegistrySnapshot local = (*server)->service().registry().Collect();
  ExpectSeriesContract(remote, "wire scrape");
  ExpectSeriesContract(local, "in-process Collect");

  // Every local series crossed the wire (the scrape is the full registry).
  ASSERT_EQ(remote.size(), local.size());
  for (const obs::MetricSample& l : local) {
    ASSERT_NE(wire->Find(l.name), nullptr) << l.name;
  }

  // Monotonic counters: the wire value was read between our last request
  // and the local Collect(), so local >= wire >= the known traffic floor.
  auto wire_value = [&wire](const char* name) {
    const WireMetric* m = wire->Find(name);
    EXPECT_NE(m, nullptr) << name;
    return m == nullptr ? 0 : m->value;
  };
  struct FloorCheck {
    const char* name;
    uint64_t floor;
  };
  const FloorCheck checks[] = {
      {"service_submitted", 8},     {"service_completed", 8},
      {"service_fast_path", 6},     {"service_writer_lane", 2},
      {"wal_records", 2},           {"wal_fsyncs", 1},
      {"wal_bytes", 1},             {"columnar_builds", 1},
      {"columnar_scan_rows", 1},    {"plan_cache_hits", 1},
      {"plan_cache_misses", 1},     {"mvcc_snapshots_opened", 8},
      {"engine_undo_records", 1},   {"server_connections_accepted", 1},
  };
  for (const FloorCheck& c : checks) {
    uint64_t wired = wire_value(c.name);
    EXPECT_GE(wired, c.floor) << c.name;
    EXPECT_GE(obs::SampleValue(local, c.name), wired) << c.name;
  }
  EXPECT_EQ(wire_value("server_protocol_errors"), 0u);
  // Gauges match the database's current state exactly (quiescent now).
  EXPECT_EQ(wire_value("db_commit_epoch"), inst.db->commit_epoch());

  // The latency histogram crossed the wire with its full shape: count
  // covers all 8 requests and percentile math works on the remote copy.
  const obs::MetricSample* lat = obs::FindSample(remote, "check_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_GE(lat->hist.count, 8u);
  EXPECT_GT(lat->hist.Percentile(50), 0u);
  EXPECT_LE(lat->hist.Percentile(50), lat->hist.Percentile(99));
  const obs::MetricSample* local_lat =
      obs::FindSample(local, "check_latency_ns");
  ASSERT_NE(local_lat, nullptr);
  EXPECT_EQ(local_lat->hist.count, lat->hist.count);
  EXPECT_EQ(local_lat->hist.sum, lat->hist.sum);
  EXPECT_EQ(local_lat->hist.max, lat->hist.max);
  // Queue residency is always on: after eight pops its percentiles are
  // real readings.
  const obs::MetricSample* queue_wait =
      obs::FindSample(remote, "stage_queue_wait_ns");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_GT(queue_wait->hist.Percentile(99), 0u);
  EXPECT_LE(queue_wait->hist.Percentile(50), queue_wait->hist.Percentile(99));

  // Server transport counters live in the same registry.
  EXPECT_GE(wire_value("server_requests"), 8u);  // check requests only

  // A second service over the same database sees every database series
  // once through its own registry, and leaves nothing behind in the
  // database's registry once destroyed: the server's scrape keeps every
  // name exactly once.
  {
    service::CheckServiceOptions second_opts;
    second_opts.worker_threads = 1;
    service::CheckService second(inst.uf.get(), second_opts);
    obs::RegistrySnapshot theirs = second.registry().Collect();
    ExpectUniqueNames(theirs, "second service");
    for (const obs::MetricSample& d : inst.db->registry().Collect()) {
      EXPECT_NE(obs::FindSample(theirs, d.name), nullptr) << d.name;
    }
    EXPECT_EQ(obs::SampleValue(theirs, "wal_records"),
              obs::SampleValue(local, "wal_records"));
  }
  auto after = client.Metrics();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ExpectSeriesContract(SnapshotFromMetrics(*after), "after second service");
  EXPECT_EQ(after->metrics.size(), wire->metrics.size());
}

}  // namespace
}  // namespace ufilter::net
