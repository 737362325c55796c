// The chaos suite: client and server behavior under injected socket
// faults (tests/support/chaos_proxy.h). The acceptance criteria it pins:
//   - no client call ever hangs past its deadline budget, whatever the
//     network does;
//   - wire damage (bit flips, torn frames, severed connections) never
//     crashes the server and drops only the damaged connection;
//   - check-only requests are retried through transient faults and still
//     come back with the right verdict;
//   - an apply whose response is lost is indeterminate: surfaced as an
//     error, never silently retried (retrying could double-apply).
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "fixtures/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"

#include "../support/chaos_proxy.h"

namespace ufilter::net {
namespace {

using check::UFilter;
using relational::Database;
using testing::ChaosProxy;

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
};

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

struct Rig {
  Instance inst;
  std::unique_ptr<Server> server;
  std::unique_ptr<ChaosProxy> proxy;

  static Rig Up(ServerOptions opts = {}) {
    Rig rig;
    rig.inst = MakeChainInstance(2, 16);
    if (opts.service.worker_threads == 0) opts.service.worker_threads = 2;
    auto server = Server::Start(rig.inst.uf.get(), opts);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    rig.server = std::move(*server);
    rig.proxy = std::make_unique<ChaosProxy>(rig.server->port());
    return rig;
  }

  ClientOptions ThroughProxy() const {
    ClientOptions opts;
    opts.port = proxy->port();
    return opts;
  }

  /// One series of the server's in-process scrape.
  uint64_t Series(const std::string& name) {
    return obs::SampleValue(server->service().registry().Collect(), name);
  }
};

/// One series of a wire scrape through `client` (0, and a test failure,
/// when the scrape or the series is missing).
uint64_t Scraped(Client* client, const std::string& name) {
  auto scrape = client->Metrics();
  EXPECT_TRUE(scrape.ok()) << scrape.status().ToString();
  const WireMetric* m = scrape.ok() ? scrape->Find(name) : nullptr;
  EXPECT_NE(m, nullptr) << name;
  return m != nullptr ? m->value : 0;
}

std::string CheckOnlyUpdate() {
  return fixtures::ChainReplaceUpdate(1, 1, "chaos-check");
}

TEST(ChaosTest, DelayedNetworkStillSucceeds) {
  Rig rig = Rig::Up();
  rig.proxy->SetDelayMs(30);
  Client client(rig.ThroughProxy());
  auto resp = client.Check(CheckOnlyUpdate(), /*apply=*/false);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
}

TEST(ChaosTest, BlackholeNeverHangsPastDeadline) {
  Rig rig = Rig::Up();
  rig.proxy->Blackhole(true);

  ClientOptions opts = rig.ThroughProxy();
  opts.request_timeout = std::chrono::milliseconds(200);
  opts.connect_timeout = std::chrono::milliseconds(200);
  opts.max_attempts = 2;
  opts.backoff_max = std::chrono::milliseconds(50);
  Client client(opts);

  auto start = std::chrono::steady_clock::now();
  auto resp = client.Check(CheckOnlyUpdate(), /*apply=*/false);
  auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_FALSE(resp.ok());
  // 2 attempts x 200ms budget + one jittered backoff + generous slack —
  // but never an unbounded hang.
  EXPECT_LT(elapsed, std::chrono::milliseconds(3000));
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(200));

  // The swallowed bytes hurt nobody else: a direct client still works.
  ClientOptions direct;
  direct.port = rig.server->port();
  Client healthy(direct);
  EXPECT_TRUE(healthy.Ping().ok());
}

TEST(ChaosTest, CorruptBytesDropConnectionAndCheckRetrySucceeds) {
  Rig rig = Rig::Up();
  rig.proxy->CorruptNext();

  Client client(rig.ThroughProxy());
  auto resp = client.Check(CheckOnlyUpdate(), /*apply=*/false);
  // The damaged attempt lost its connection (the server hangs up on CRC or
  // magic failure); the retry reconnects through the proxy and completes.
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  EXPECT_GE(client.metrics().retries, 1u);
  EXPECT_GE(client.metrics().reconnects, 2u);
  EXPECT_GE(rig.Series("server_protocol_errors"), 1u);
}

TEST(ChaosTest, FrameTornMidLengthPrefixIsQuietlyRetried) {
  Rig rig = Rig::Up();
  // Forward the magic plus two bytes of the first frame's length prefix,
  // then sever: the server holds a torn frame (not a protocol error — the
  // bytes it got were valid) and the client retries.
  rig.proxy->TruncateAfter(static_cast<int64_t>(kNetMagicLen) + 2);

  Client client(rig.ThroughProxy());
  auto resp = client.Check(CheckOnlyUpdate(), /*apply=*/false);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  EXPECT_GE(client.metrics().retries, 1u);
}

TEST(ChaosTest, SeveredApplyIsIndeterminateAndNeverRetried) {
  ServerOptions sopts;
  sopts.service.worker_threads = 1;
  sopts.service.writer_lane_hold_ms_for_testing = 400;
  Rig rig = Rig::Up(sopts);

  ClientOptions opts = rig.ThroughProxy();
  opts.request_timeout = std::chrono::milliseconds(5000);
  Client client(opts);

  // The apply reaches the server (400ms writer hold), then the connection
  // dies under the client before the response comes back.
  Result<CheckResponseMsg> resp = Status::Unavailable("not yet run");
  std::thread caller([&] {
    resp = client.Check(fixtures::ChainReplaceUpdate(1, 2, "severed"), true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  rig.proxy->SeverAll();
  caller.join();

  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsUnavailable()) << resp.status().ToString();
  EXPECT_EQ(client.metrics().indeterminate, 1u);
  EXPECT_EQ(client.metrics().retries, 0u);

  // And the indeterminacy is real: the server did execute the apply. A
  // blind retry would have double-applied.
  ClientOptions direct;
  direct.port = rig.server->port();
  Client observer(direct);
  bool executed = false;
  for (int i = 0; i < 100 && !executed; ++i) {
    executed = Scraped(&observer, "service_writer_lane") >= 1 &&
               Scraped(&observer, "service_completed") >= 1;
    if (!executed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(executed);
}

TEST(ChaosTest, RefusalRetryNeverLandsBeforeTheServerAdvertisedFloor) {
  // The regression this pins: a kShed/kDraining response carries
  // retry_after_ms, and the client's *first* backoff after it must honor
  // that floor — a jittered backoff alone could land the retry almost
  // immediately and pile onto an overloaded server. A shut-down check
  // service answers every request kDraining instantly (same client-side
  // floor path as kShed, without queue-timing races), so the elapsed time
  // isolates exactly the backoff.
  ServerOptions sopts;
  sopts.drain_retry_after_ms = 250;
  Rig rig = Rig::Up(sopts);
  rig.server->service().Shutdown();

  ClientOptions opts;
  opts.port = rig.server->port();
  opts.max_attempts = 2;
  opts.backoff_base = std::chrono::milliseconds(1);
  opts.backoff_max = std::chrono::milliseconds(2);
  Client probe(opts);
  auto start = std::chrono::steady_clock::now();
  auto resp = probe.Check(CheckOnlyUpdate(), /*apply=*/false);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  EXPECT_FALSE(resp.ok()) << "a shut-down service executed a request";
  ASSERT_EQ(probe.metrics().shed_seen, 2u) << resp.status().ToString();
  // Both refusals were answered in microseconds; the elapsed time is the
  // one backoff between them. The 250ms floor must dominate the 2ms
  // jitter ceiling — and stay a backoff, not a hang.
  EXPECT_GE(elapsed, std::chrono::milliseconds(250))
      << "retry landed before the server's advertised floor";
  EXPECT_LT(elapsed, std::chrono::milliseconds(2000));
}

TEST(ChaosTest, IndeterminateApplyStaysIndeterminateAcrossReconnect) {
  // The regression this pins: a client whose apply went indeterminate
  // reconnects for its *next* call — the reconnect must not resurrect or
  // silently re-send the lost apply, and must not count it twice.
  ServerOptions sopts;
  sopts.service.worker_threads = 1;
  sopts.service.writer_lane_hold_ms_for_testing = 400;
  Rig rig = Rig::Up(sopts);

  ClientOptions opts = rig.ThroughProxy();
  opts.request_timeout = std::chrono::milliseconds(5000);
  Client client(opts);

  Result<CheckResponseMsg> resp = Status::Unavailable("not yet run");
  std::thread caller([&] {
    resp = client.Check(fixtures::ChainReplaceUpdate(1, 6, "lost"), true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  rig.proxy->SeverAll();
  caller.join();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(client.metrics().indeterminate, 1u);

  // The server finishes the orphaned apply exactly once.
  ClientOptions direct;
  direct.port = rig.server->port();
  Client observer(direct);
  bool executed = false;
  for (int i = 0; i < 200 && !executed; ++i) {
    executed = Scraped(&observer, "service_writer_lane") >= 1;
    if (!executed) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(executed);

  // Network healed (SeverAll killed connections, not the proxy): the same
  // client's next call reconnects and succeeds.
  auto check = client.Check(CheckOnlyUpdate(), /*apply=*/false);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(check->verdict, Verdict::kExecuted) << check->message;

  // Nothing was double-counted and nothing was re-sent: still exactly one
  // indeterminate apply client-side, exactly one writer-lane execution
  // server-side.
  EXPECT_EQ(client.metrics().indeterminate, 1u);
  EXPECT_EQ(Scraped(&observer, "service_writer_lane"), 1u);
}

TEST(ChaosTest, ServerSurvivesAStormOfBrokenPeers) {
  Rig rig = Rig::Up();
  // Rounds of damage: corrupt, truncated, and severed exchanges
  // interleaved with healthy ones; the server must answer every healthy
  // request correctly to the very end.
  for (int round = 0; round < 5; ++round) {
    rig.proxy->CorruptNext();
    Client damaged(rig.ThroughProxy());
    (void)damaged.Check(CheckOnlyUpdate(), /*apply=*/false);

    rig.proxy->TruncateAfter(static_cast<int64_t>(kNetMagicLen) + 1);
    Client torn(rig.ThroughProxy());
    (void)torn.Check(CheckOnlyUpdate(), /*apply=*/false);

    ClientOptions direct;
    direct.port = rig.server->port();
    Client healthy(direct);
    auto resp = healthy.Check(CheckOnlyUpdate(), /*apply=*/false);
    ASSERT_TRUE(resp.ok()) << "round " << round << ": "
                           << resp.status().ToString();
    EXPECT_EQ(resp->verdict, Verdict::kExecuted) << resp->message;
  }
  EXPECT_GE(rig.Series("server_protocol_errors"), 1u);
}

}  // namespace
}  // namespace ufilter::net
