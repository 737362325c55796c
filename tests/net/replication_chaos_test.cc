// Replication under injected transport faults: the follower's subscription
// runs through the chaos proxy and must survive severed connections,
// blackholes and corrupt bytes by reconnecting and resuming from its own
// epoch — converging to the primary every time, with no epoch ever applied
// twice. Also pins the source's side of the contract: one bad frame drops
// exactly that subscription.
#include "net/replication.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "../support/chaos_proxy.h"
#include "../support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace ufilter::net {
namespace {

using check::UFilter;
using relational::Database;
using test_support::TempDir;
using testing::ChaosProxy;

constexpr int kDepth = 2;
constexpr int kRows = 10;

struct Rig {
  Rig() = default;
  Rig(Rig&&) = default;
  Rig& operator=(Rig&&) = default;

  std::unique_ptr<Database> primary_db;
  std::unique_ptr<UFilter> primary_uf;
  std::unique_ptr<Server> primary_server;
  std::unique_ptr<ReplicationSource> source;
  std::unique_ptr<ChaosProxy> proxy;
  std::unique_ptr<Database> follower_db;
  std::unique_ptr<UFilter> follower_uf;
  std::unique_ptr<Server> follower_server;
  std::unique_ptr<Follower> follower;

  static Rig Up(const std::string& wal) {
    Rig rig;
    auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    rig.primary_db = std::move(*db);
    relational::DurabilityOptions dopts;
    dopts.wal_path = wal;
    dopts.fsync_policy = relational::FsyncPolicy::kGroup;
    EXPECT_TRUE(rig.primary_db->EnableDurability(dopts).ok());
    EXPECT_TRUE(
        fixtures::PopulateChain(rig.primary_db.get(), kDepth, kRows).ok());
    EXPECT_TRUE(rig.primary_db->PublishVersion().ok());
    auto uf = UFilter::Create(rig.primary_db.get(),
                              fixtures::ChainViewQuery(kDepth));
    EXPECT_TRUE(uf.ok()) << uf.status().ToString();
    rig.primary_uf = std::move(*uf);
    auto server = Server::Start(rig.primary_uf.get());
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    rig.primary_server = std::move(*server);

    ReplicationSourceOptions ropts;
    ropts.wal_path = wal;
    auto src = ReplicationSource::Start(
        rig.primary_db.get(), &rig.primary_server->service().registry(),
        ropts);
    EXPECT_TRUE(src.ok()) << src.status().ToString();
    rig.source = std::move(*src);
    rig.proxy = std::make_unique<ChaosProxy>(rig.source->port());

    auto fdb = Database::Create(fixtures::MakeChainSchema(kDepth));
    EXPECT_TRUE(fdb.ok()) << fdb.status().ToString();
    rig.follower_db = std::move(*fdb);
    auto fuf = UFilter::Create(rig.follower_db.get(),
                               fixtures::ChainViewQuery(kDepth));
    EXPECT_TRUE(fuf.ok()) << fuf.status().ToString();
    rig.follower_uf = std::move(*fuf);
    auto fserver = Server::Start(rig.follower_uf.get());
    EXPECT_TRUE(fserver.ok()) << fserver.status().ToString();
    rig.follower_server = std::move(*fserver);

    FollowerOptions fopts;
    fopts.port = rig.proxy->port();
    // Tight liveness so a blackholed connection is declared dead fast.
    fopts.dead_after = std::chrono::milliseconds(400);
    fopts.backoff_max = std::chrono::milliseconds(100);
    rig.follower = Follower::Start(&rig.follower_server->service(),
                                   rig.follower_db.get(), fopts);
    return rig;
  }

  /// One series of the follower's scrape (apply counters, lag gauges).
  uint64_t FollowerSeries(const std::string& name) {
    return obs::SampleValue(follower_server->service().registry().Collect(),
                            name);
  }
  /// One series of the primary's scrape (the source's repl_* series).
  uint64_t SourceSeries(const std::string& name) {
    return obs::SampleValue(primary_server->service().registry().Collect(),
                            name);
  }

  Status Commit(int batch) {
    return fixtures::ApplyChainBatch(primary_db.get(), kDepth, kRows,
                                     /*seed=*/23, batch);
  }

  void ExpectConverged(const char* label) {
    ASSERT_TRUE(follower->WaitForEpoch(primary_db->commit_epoch(),
                                       std::chrono::seconds(15)))
        << label << ": follower stuck at " << follower->applied_epoch()
        << " of " << primary_db->commit_epoch() << " (status "
        << follower->status().ToString() << ")";
    auto want = primary_db->SerializePublishedState();
    auto got = follower_db->SerializePublishedState();
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, *want) << label;
    EXPECT_TRUE(follower->status().ok()) << label;
  }

  ~Rig() {
    if (follower != nullptr) follower->Stop();
    if (proxy != nullptr) proxy->Stop();
    if (source != nullptr) source->Stop();
  }
};

TEST(ReplicationChaosTest, SeveredSubscriptionReconnectsAndResumes) {
  TempDir tmp("repl_sever");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("initial catch-up");
  const uint64_t connects_before = rig.FollowerSeries("repl_connects");
  const uint64_t applied_before = rig.FollowerSeries("repl_records_applied");

  rig.proxy->SeverAll();
  ASSERT_TRUE(rig.Commit(1).ok());
  ASSERT_TRUE(rig.Commit(2).ok());
  rig.ExpectConverged("post-sever");
  EXPECT_GT(rig.FollowerSeries("repl_connects"), connects_before)
      << "convergence without a reconnect means the sever missed";
  // Exactly the two severed-era epochs applied: resume-from-epoch never
  // replays what the follower already has (idempotent skips aside).
  EXPECT_EQ(rig.FollowerSeries("repl_records_applied"), applied_before + 2);
}

TEST(ReplicationChaosTest, BlackholedStreamIsDeclaredDeadAndRebuilt) {
  TempDir tmp("repl_hole");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("initial catch-up");
  const uint64_t connects_before = rig.FollowerSeries("repl_connects");

  // Bytes vanish silently: no FIN, no RST. Only the dead_after watchdog
  // can notice. Commits continue during the outage.
  rig.proxy->Blackhole(true);
  ASSERT_TRUE(rig.Commit(1).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  rig.proxy->Blackhole(false);
  ASSERT_TRUE(rig.Commit(2).ok());
  rig.ExpectConverged("post-blackhole");
  EXPECT_GT(rig.FollowerSeries("repl_connects"), connects_before);
}

TEST(ReplicationChaosTest, CorruptFrameDropsSubscriptionThenResumes) {
  TempDir tmp("repl_corrupt");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("initial catch-up");

  // Flip a bit in the follower's next upstream chunk (an ack): the source
  // fails the CRC, drops that subscription, and the follower rebuilds it.
  rig.proxy->CorruptNext();
  ASSERT_TRUE(rig.Commit(1).ok());
  rig.ExpectConverged("post-corruption");
  bool dropped = false;
  for (int i = 0; i < 100 && !dropped; ++i) {
    dropped = rig.SourceSeries("repl_protocol_errors") >= 1;
    if (!dropped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(dropped) << "the corrupt frame was never noticed";

  // Chaos over: the stream keeps working.
  ASSERT_TRUE(rig.Commit(2).ok());
  rig.ExpectConverged("post-recovery");
}

TEST(ReplicationChaosTest, RepeatedFaultsNeverDoubleApplyAnEpoch) {
  TempDir tmp("repl_storm");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  int batch = 0;
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(rig.Commit(batch++).ok());
    rig.proxy->SeverAll();
    ASSERT_TRUE(rig.Commit(batch++).ok());
    rig.proxy->CorruptNext();
    ASSERT_TRUE(rig.Commit(batch++).ok());
    rig.ExpectConverged("storm round");
  }
  // Convergence is byte-equal (checked each round); on top of that the
  // accounting must balance: each of the `batch` committed epochs was
  // applied at most once (the bootstrap snapshot may cover a prefix), and
  // anything a resume re-delivered was skipped, never re-applied.
  EXPECT_LE(rig.FollowerSeries("repl_records_applied"),
            static_cast<uint64_t>(batch))
      << "more records applied than epochs committed: an epoch ran twice";
  EXPECT_EQ(rig.follower_db->commit_epoch(), rig.primary_db->commit_epoch());
}

// One bad frame — wrong type or garbage bytes — costs exactly that
// subscription, nothing else.
TEST(ReplicationChaosTest, BadFirstFrameIsRefusedWithoutCollateral) {
  TempDir tmp("repl_bad");
  ASSERT_TRUE(tmp.ok());
  Rig rig = Rig::Up(tmp.path("primary.wal"));
  ASSERT_TRUE(rig.Commit(0).ok());
  rig.ExpectConverged("healthy subscriber up");
  const uint64_t errors_before = rig.SourceSeries("repl_protocol_errors");

  // A peer whose first frame is not kReplSubscribe (a check request on the
  // replication plane) is hung up on.
  {
    auto fd = ConnectTcp("127.0.0.1", rig.source->port(),
                         std::chrono::milliseconds(1000));
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
    ASSERT_TRUE(SendAll(*fd, kNetMagic, kNetMagicLen, deadline).ok());
    CheckRequestMsg req;
    req.request_id = 1;
    req.update_text = "not a subscription";
    std::string frame = FramePayload(EncodeCheckRequest(req));
    ASSERT_TRUE(SendAll(*fd, frame.data(), frame.size(), deadline).ok());
    char buf[16];
    auto got = RecvSome(*fd, buf, sizeof(buf),
                        std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(5000));
    EXPECT_FALSE(got.ok()) << "the source answered a non-subscribe frame";
    CloseFd(*fd);
  }
  bool counted = false;
  for (int i = 0; i < 100 && !counted; ++i) {
    counted = rig.SourceSeries("repl_protocol_errors") > errors_before;
    if (!counted) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(counted);

  // The healthy subscription never noticed.
  ASSERT_TRUE(rig.Commit(1).ok());
  rig.ExpectConverged("after the bad peer");
  EXPECT_TRUE(rig.follower->status().ok());
}

}  // namespace
}  // namespace ufilter::net
