// End-to-end epoch-stream replication over real sockets: a primary server
// with a ReplicationSource, a follower server subscribed to it. The
// acceptance this file pins:
//   - the follower converges byte-equal to the primary's published state
//     and serves *identical* verdicts for the paper's u1..u13 workload at
//     the matched epoch;
//   - a subscriber arriving mid-stream bootstraps from a snapshot at the
//     primary's current epoch and then rides the live tail;
//   - replication_lag_epochs falls to 0 once the primary idles (heartbeats
//     keep the gauge fresh without commits);
//   - a follower is read-only: applies come back kRedirectToPrimary naming
//     the primary, and are never executed locally.
#include "net/replication.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/temp_dir.h"
#include "fixtures/bookdb.h"
#include "fixtures/synthetic.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "relational/wal.h"

namespace ufilter::net {
namespace {

using check::UFilter;
using relational::Database;
using test_support::TempDir;

constexpr int kDepth = 2;
constexpr int kRows = 12;

struct Node {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
  std::unique_ptr<Server> server;
};

/// A durable primary: schema + WAL on, then seeded *through* the WAL so
/// the log certifies everything (the snapshot bootstrap covers pre-WAL
/// state anyway, but the crash tests want the full history on disk).
Node MakeChainPrimary(const std::string& wal) {
  Node node;
  auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  node.db = std::move(*db);
  relational::DurabilityOptions dopts;
  dopts.wal_path = wal;
  dopts.fsync_policy = relational::FsyncPolicy::kGroup;
  EXPECT_TRUE(node.db->EnableDurability(dopts).ok());
  EXPECT_TRUE(fixtures::PopulateChain(node.db.get(), kDepth, kRows).ok());
  EXPECT_TRUE(node.db->PublishVersion().ok());
  EXPECT_TRUE(node.db->SyncWal().ok());
  auto uf = UFilter::Create(node.db.get(), fixtures::ChainViewQuery(kDepth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  node.uf = std::move(*uf);
  auto server = Server::Start(node.uf.get());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  node.server = std::move(*server);
  return node;
}

/// The book database (u1..u13's world) as a durable primary. Seeding
/// happened before durability: the WAL only carries post-enable epochs and
/// the snapshot bootstrap ships the rest — deliberately exercising that
/// split.
Node MakeBookPrimary(const std::string& wal) {
  Node node;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  node.db = std::move(*db);
  relational::DurabilityOptions dopts;
  dopts.wal_path = wal;
  dopts.fsync_policy = relational::FsyncPolicy::kGroup;
  EXPECT_TRUE(node.db->EnableDurability(dopts).ok());
  EXPECT_TRUE(node.db->PublishVersion().ok());
  auto uf = UFilter::Create(node.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  node.uf = std::move(*uf);
  auto server = Server::Start(node.uf.get());
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  node.server = std::move(*server);
  return node;
}

/// A follower node: fresh database, redirecting server, no subscription
/// yet (the test owns the Follower so it can Stop/observe it).
Node MakeFollowerNode(const Node& primary, bool book) {
  Node node;
  auto db = Database::Create(book ? fixtures::MakeBookSchema()
                                  : fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  node.db = std::move(*db);
  auto uf = UFilter::Create(node.db.get(),
                            book ? fixtures::BookViewQuery()
                                 : fixtures::ChainViewQuery(kDepth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  node.uf = std::move(*uf);
  ServerOptions sopts;
  sopts.redirect_primary =
      "127.0.0.1:" + std::to_string(primary.server->port());
  auto server = Server::Start(node.uf.get(), sopts);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  node.server = std::move(*server);
  return node;
}

std::unique_ptr<ReplicationSource> StartSource(Node* primary,
                                               const std::string& wal) {
  ReplicationSourceOptions ropts;
  ropts.wal_path = wal;
  auto src = ReplicationSource::Start(
      primary->db.get(), &primary->server->service().registry(), ropts);
  EXPECT_TRUE(src.ok()) << src.status().ToString();
  return src.ok() ? std::move(*src) : nullptr;
}

std::unique_ptr<Follower> StartFollower(Node* follower_node,
                                        const ReplicationSource& src) {
  FollowerOptions fopts;
  fopts.port = src.port();
  return Follower::Start(&follower_node->server->service(),
                         follower_node->db.get(), fopts);
}

std::string StateOf(Database* db) {
  auto state = db->SerializePublishedState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  return state.ok() ? *state : std::string();
}

/// One series of a node's scrape (its service registry).
uint64_t Series(Server& server, const std::string& name) {
  return obs::SampleValue(server.service().registry().Collect(), name);
}

ClientOptions ClientFor(const Server& server) {
  ClientOptions opts;
  opts.port = server.port();
  return opts;
}

TEST(ReplicationTest, FollowerConvergesAndServesIdenticalVerdicts) {
  TempDir tmp("repl_e2e");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeBookPrimary(wal);
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);
  Node replica = MakeFollowerNode(primary, /*book=*/true);
  auto follower = StartFollower(&replica, *source);

  // Drive the primary through the paper's whole update workload; the
  // executed subset commits epochs into the WAL and onto the stream.
  Client writer(ClientFor(*primary.server));
  for (int u = 1; u <= 13; ++u) {
    auto resp = writer.Check(fixtures::PaperUpdate(u), /*apply=*/true);
    ASSERT_TRUE(resp.ok()) << "u" << u << ": " << resp.status().ToString();
  }

  const uint64_t target = primary.db->commit_epoch();
  ASSERT_TRUE(follower->WaitForEpoch(target, std::chrono::seconds(10)))
      << "follower stuck at epoch " << follower->applied_epoch() << " of "
      << target << " (status " << follower->status().ToString() << ")";
  EXPECT_TRUE(follower->status().ok());

  // Byte-equal convergence: published state is identical, not just similar.
  EXPECT_EQ(StateOf(replica.db.get()), StateOf(primary.db.get()));
  EXPECT_EQ(replica.db->commit_epoch(), target);

  // Verdict parity at the matched epoch: every u1..u13 dry-run answer from
  // the follower equals the primary's, field for field.
  Client on_primary(ClientFor(*primary.server));
  Client on_replica(ClientFor(*replica.server));
  for (int u = 1; u <= 13; ++u) {
    auto want = on_primary.Check(fixtures::PaperUpdate(u), /*apply=*/false);
    auto got = on_replica.Check(fixtures::PaperUpdate(u), /*apply=*/false);
    ASSERT_TRUE(want.ok()) << "u" << u << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << "u" << u << ": " << got.status().ToString();
    EXPECT_EQ(got->verdict, want->verdict) << "u" << u;
    EXPECT_EQ(got->status_code, want->status_code) << "u" << u;
    EXPECT_EQ(got->rows_affected, want->rows_affected) << "u" << u;
  }

  // The primary has idled through the parity pass: heartbeats must have
  // brought the lag gauges to zero.
  bool lag_zero = false;
  for (int i = 0; i < 200 && !lag_zero; ++i) {
    lag_zero = Series(*replica.server, "replication_lag_epochs") == 0 &&
               Series(*replica.server, "replication_lag_ms") == 0;
    if (!lag_zero) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(lag_zero) << "lag_epochs="
                        << Series(*replica.server, "replication_lag_epochs");

  // The follower series CI's replication scrape gates on reach the wire
  // under their names and kinds.
  auto scrape = on_replica.Metrics();
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const std::pair<const char*, obs::MetricKind> follower_series[] = {
      {"replication_lag_epochs", obs::MetricKind::kGauge},
      {"replication_lag_bytes", obs::MetricKind::kGauge},
      {"repl_connects", obs::MetricKind::kCounter},
      {"repl_snapshots_loaded", obs::MetricKind::kCounter},
      {"repl_records_applied", obs::MetricKind::kCounter},
  };
  for (const auto& [name, kind] : follower_series) {
    const WireMetric* m = scrape->Find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->kind, static_cast<uint8_t>(kind)) << name;
  }
  EXPECT_GE(scrape->Find("repl_connects")->value, 1u);

  // Read-only contract: an apply against the follower is refused with a
  // redirect naming the primary, executes nothing, and the client hands
  // the verdict straight back (a redirect is not retry-safe).
  const uint64_t epoch_before = replica.db->commit_epoch();
  auto redirect = on_replica.Check(fixtures::PaperUpdate(4), /*apply=*/true);
  ASSERT_TRUE(redirect.ok()) << redirect.status().ToString();
  EXPECT_EQ(redirect->verdict, Verdict::kRedirectToPrimary);
  EXPECT_NE(redirect->message.find(
                "127.0.0.1:" + std::to_string(primary.server->port())),
            std::string::npos)
      << redirect->message;
  EXPECT_EQ(replica.db->commit_epoch(), epoch_before);
  EXPECT_GE(Series(*replica.server, "server_redirected_applies"), 1u);
  EXPECT_EQ(on_replica.metrics().retries, 0u);

  // The source saw our acks climb to the target epoch.
  bool acked = false;
  for (int i = 0; i < 200 && !acked; ++i) {
    acked = Series(*primary.server, "repl_acked_epoch") >= target;
    if (!acked) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(acked) << "acked_epoch="
                     << Series(*primary.server, "repl_acked_epoch");

  follower->Stop();
  source->Stop();
}

TEST(ReplicationTest, MidStreamSubscriberBootstrapsFromSnapshot) {
  TempDir tmp("repl_mid");
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("primary.wal");
  Node primary = MakeChainPrimary(wal);
  auto source = StartSource(&primary, wal);
  ASSERT_NE(source, nullptr);

  // History happens before the subscriber exists.
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 11, b)
            .ok());
  }
  const uint64_t pre_subscribe_epoch = primary.db->commit_epoch();

  Node replica = MakeFollowerNode(primary, /*book=*/false);
  auto follower = StartFollower(&replica, *source);
  ASSERT_TRUE(
      follower->WaitForEpoch(pre_subscribe_epoch, std::chrono::seconds(10)));
  // The catch-up came from one snapshot, not a record-by-record replay of
  // history the subscriber never saw.
  EXPECT_EQ(Series(*replica.server, "repl_snapshots_loaded"), 1u);
  EXPECT_EQ(Series(*primary.server, "repl_snapshots_shipped"), 1u);
  EXPECT_EQ(StateOf(replica.db.get()), StateOf(primary.db.get()));

  // And the live tail continues past the bootstrap.
  for (int b = 4; b < 7; ++b) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(primary.db.get(), kDepth, kRows, 11, b)
            .ok());
  }
  ASSERT_TRUE(follower->WaitForEpoch(primary.db->commit_epoch(),
                                     std::chrono::seconds(10)));
  EXPECT_EQ(StateOf(replica.db.get()), StateOf(primary.db.get()));
  EXPECT_GT(Series(*replica.server, "repl_records_applied"), 0u);

  follower->Stop();
  source->Stop();
}

TEST(ReplicationTest, SourceRefusesToStartWithoutDurability) {
  auto db = fixtures::MakeChainDatabase(kDepth, kRows,
                                        relational::DeletePolicy::kCascade);
  ASSERT_TRUE(db.ok());
  obs::Registry registry;
  ReplicationSourceOptions ropts;
  ropts.wal_path = "/tmp/never-used.wal";
  auto src = ReplicationSource::Start(db->get(), &registry, ropts);
  EXPECT_FALSE(src.ok()) << "the stream *is* the WAL: no WAL, no stream";
}

}  // namespace
}  // namespace ufilter::net
