// Randomized interleaving fuzz of the MVCC snapshot path: N reader
// sessions run check-only verdicts against pinned snapshots while a writer
// concurrently applies translated updates (value replacements) through the
// writer-lane protocol. Every reader records its pinned snapshot and its
// live verdict; after the storm, each check is replayed single-threadedly
// against the *same* pinned snapshot and must reproduce the identical
// report — concurrent commits must never leak into a pinned check. Extends
// PR 4's verdict-parity harness; runs under TSAN and ASan+UBSan in CI.
// Seed override: UFILTER_FUZZ_SEED (logged, see tests/support/fuzz_seed.h).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "relational/sqlgen.h"
#include "relational/wal.h"
#include "ufilter/checker.h"

#include "../support/fuzz_seed.h"
#include "../support/temp_dir.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::PreparedUpdate;
using check::UFilter;
using relational::Database;
using relational::ExecutionContext;
using relational::Snapshot;

constexpr int kDepth = 2;
constexpr int kRows = 16;
constexpr int kReaders = 3;
constexpr int kChecksPerReader = 40;
constexpr int kWriterOps = 96;

/// The writer flips leaf values between colors; readers issue deletes whose
/// victim sets depend on those values, so a verdict (rows_affected /
/// zero-tuple warning) is genuinely epoch-sensitive.
const char* kColors[] = {"red", "blue", "green"};

struct RecordedCheck {
  std::shared_ptr<const Snapshot> snapshot;  ///< kept pinned for the replay
  std::string update;
  CheckReport live;   ///< verdict computed while the writer was running
  bool decided = false;
};

std::string DescribeDelta(const CheckReport& a, const CheckReport& b) {
  return "live:   " + a.Describe() + "\nreplay: " + b.Describe();
}

TEST(SnapshotFuzzTest, PinnedVerdictsMatchSingleThreadedReplayAtEpoch) {
  const uint32_t seed =
      test_support::FuzzSeed("snapshot-interleaving", 20260729);

  auto db = fixtures::MakeChainDatabase(kDepth, kRows);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto uf = UFilter::Create(db->get(), fixtures::ChainViewQuery(kDepth));
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();

  // Seed every leaf with a color so value-addressed deletes have victims.
  {
    Database::WriterGuard guard(db->get());
    for (int k = 0; k < kRows; ++k) {
      CheckReport r = (*uf)->Check(
          fixtures::ChainReplaceUpdate(kDepth - 1, k,
                                       kColors[k % 3]));
      ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
    }
  }

  CheckOptions dry;
  dry.apply = false;

  std::mutex writer_lane;
  std::vector<std::vector<RecordedCheck>> recorded(kReaders);

  // Writer: keeps recoloring random leaves through the writer-lane
  // protocol (mutual exclusion + WriterGuard publish), exactly what the
  // service's writer lane does per request.
  std::thread writer([&] {
    std::mt19937 rng(seed);
    for (int i = 0; i < kWriterOps; ++i) {
      int key = static_cast<int>(rng() % kRows);
      const char* color = kColors[rng() % 3];
      std::lock_guard<std::mutex> lane(writer_lane);
      Database::WriterGuard guard(db->get());
      CheckReport r = (*uf)->Check(
          fixtures::ChainReplaceUpdate(kDepth - 1, key, color));
      ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
    }
  });

  // Readers: pin a snapshot, run one check-only verdict with no lock held,
  // record {snapshot, update, verdict}. The snapshot handle stays alive so
  // the replay below runs at exactly the reader's pinned epoch.
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(seed + 1 + static_cast<uint32_t>(t));
      auto ctx = (*db)->CreateContext();
      for (int i = 0; i < kChecksPerReader; ++i) {
        RecordedCheck rec;
        // Mix value-addressed deletes (epoch-sensitive victim sets) with
        // key-addressed deletes (cascade counts) across levels.
        if (rng() % 2 == 0) {
          rec.update = fixtures::ChainDeleteByValueUpdate(
              kDepth - 1, kColors[rng() % 3]);
        } else {
          rec.update = fixtures::ChainDeleteUpdate(
              static_cast<int>(rng() % kDepth),
              static_cast<int64_t>(rng() % kRows));
        }
        rec.snapshot = (*db)->OpenSnapshot();
        ctx->PinReadSnapshot(rec.snapshot);
        auto plan = (*uf)->Prepare(rec.update, nullptr, ctx.get());
        auto fast = (*uf)->TryCheckReadOnly(*plan, dry, ctx.get());
        ctx->ClearReadSnapshot();
        if (fast.has_value()) {
          rec.live = *fast;
          rec.decided = true;
        }
        recorded[static_cast<size_t>(t)].push_back(std::move(rec));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Replay: single-threaded, quiescent database, same pinned snapshot —
  // the verdict must be byte-identical to what the reader computed while
  // the writer was concurrently committing.
  size_t replayed = 0;
  auto replay_ctx = (*db)->CreateContext();
  for (auto& reader_log : recorded) {
    for (RecordedCheck& rec : reader_log) {
      ASSERT_TRUE(rec.decided)
          << "chain deletes must be decidable read-only: " << rec.update;
      replay_ctx->PinReadSnapshot(rec.snapshot);
      auto plan = (*uf)->Prepare(rec.update, nullptr, replay_ctx.get());
      auto replayed_report =
          (*uf)->TryCheckReadOnly(*plan, dry, replay_ctx.get());
      replay_ctx->ClearReadSnapshot();
      ASSERT_TRUE(replayed_report.has_value()) << rec.update;
      EXPECT_EQ(rec.live.outcome, replayed_report->outcome)
          << rec.update << "\n" << DescribeDelta(rec.live, *replayed_report);
      EXPECT_EQ(rec.live.rows_affected, replayed_report->rows_affected)
          << rec.update << "\n" << DescribeDelta(rec.live, *replayed_report);
      EXPECT_EQ(rec.live.zero_tuple_warning,
                replayed_report->zero_tuple_warning)
          << rec.update;
      EXPECT_EQ(rec.live.error.ToString(),
                replayed_report->error.ToString())
          << rec.update;
      EXPECT_EQ(relational::UpdateSequenceToSql(rec.live.translation),
                relational::UpdateSequenceToSql(replayed_report->translation))
          << rec.update;
      ++replayed;
      rec.snapshot.reset();  // unpin as we go
    }
  }
  EXPECT_EQ(replayed,
            static_cast<size_t>(kReaders) * kChecksPerReader);

  // With every pin dropped, epoch GC must have caught up: nothing retained,
  // and the copy-on-write churn actually retired superseded versions.
  obs::RegistrySnapshot engine = (*db)->registry().Collect();
  EXPECT_EQ((*db)->retained_version_count(), 0u);
  EXPECT_GT(obs::SampleValue(engine, "mvcc_versions_retired"), 0u);
  EXPECT_GE(obs::SampleValue(engine, "mvcc_snapshots_opened"),
            static_cast<uint64_t>(kReaders) * kChecksPerReader);
  EXPECT_EQ((*db)->oldest_pinned_epoch(), (*db)->commit_epoch());

  // Sanity: the storm really interleaved — the writer advanced the epoch
  // far past the first reader pins.
  EXPECT_GT((*db)->commit_epoch(), static_cast<uint64_t>(kWriterOps) / 2);
}

// The PR 5 storm with the WAL turned on: concurrent snapshot readers while
// a writer commits durable epochs. Afterwards the log must replay to the
// byte-exact live state, group commit must have amortized fsyncs, and the
// check-only traffic must not have appended anything.
TEST(SnapshotFuzzTest, DurableStormRecoversToExactLiveState) {
  const uint32_t seed = test_support::FuzzSeed("snapshot-durable", 4242);
  test_support::TempDir tmp("ufilter_storm");
  ASSERT_TRUE(tmp.ok());

  auto created = Database::Create(fixtures::MakeChainSchema(kDepth));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);
  relational::DurabilityOptions durability;
  durability.wal_path = tmp.path("storm.wal");
  durability.fsync_policy = relational::FsyncPolicy::kGroup;
  durability.group_commit_size = 8;
  ASSERT_TRUE(db->EnableDurability(durability).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  auto uf = UFilter::Create(db.get(), fixtures::ChainViewQuery(kDepth));
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();

  CheckOptions dry;
  dry.apply = false;
  std::mutex writer_lane;
  std::thread writer([&] {
    std::mt19937 rng(seed);
    for (int i = 0; i < kWriterOps; ++i) {
      int key = static_cast<int>(rng() % kRows);
      const char* color = kColors[rng() % 3];
      std::lock_guard<std::mutex> lane(writer_lane);
      Database::WriterGuard guard(db.get());
      CheckReport r = (*uf)->Check(
          fixtures::ChainReplaceUpdate(kDepth - 1, key, color));
      ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(seed + 1 + static_cast<uint32_t>(t));
      auto ctx = db->CreateContext();
      for (int i = 0; i < kChecksPerReader; ++i) {
        auto snap = db->OpenSnapshot();
        ctx->PinReadSnapshot(snap);
        std::string update = fixtures::ChainDeleteByValueUpdate(
            kDepth - 1, kColors[rng() % 3]);
        auto plan = (*uf)->Prepare(update, nullptr, ctx.get());
        auto fast = (*uf)->TryCheckReadOnly(*plan, dry, ctx.get());
        ctx->ClearReadSnapshot();
        EXPECT_TRUE(fast.has_value());
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_TRUE(db->SyncWal().ok());
  ASSERT_TRUE(db->wal_status().ok());

  // Group commit really batched: far fewer fsyncs than records. (The
  // serial writer lane makes the exact batching timing-dependent, but the
  // bound records >= fsyncs is policy-guaranteed, and with 96+ commits at
  // group size 8 there must be real amortization.)
  obs::RegistrySnapshot engine = db->registry().Collect();
  EXPECT_GT(obs::SampleValue(engine, "wal_records"), 0u);
  EXPECT_LT(obs::SampleValue(engine, "wal_fsyncs"),
            obs::SampleValue(engine, "wal_records"))
      << "group commit never amortized an fsync";

  // Byte-exact crash-free recovery of the whole storm.
  Result<std::string> live = db->SerializePublishedState();
  ASSERT_TRUE(live.ok());
  const uint64_t live_epoch = db->commit_epoch();
  auto recovered_db = Database::Create(fixtures::MakeChainSchema(kDepth));
  ASSERT_TRUE(recovered_db.ok());
  ASSERT_TRUE((*recovered_db)->RecoverFrom(durability.wal_path).ok());
  EXPECT_EQ((*recovered_db)->commit_epoch(), live_epoch);
  Result<std::string> replayed = (*recovered_db)->SerializePublishedState();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, *live)
      << "WAL replay diverged from the live state after the storm";
}

TEST(SnapshotFuzzTest, CheckOnlyStormLeavesDatabaseUntouched) {
  const uint32_t seed = test_support::FuzzSeed("snapshot-checkonly", 7);
  auto db = fixtures::MakeChainDatabase(kDepth, kRows);
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::ChainViewQuery(kDepth));
  ASSERT_TRUE(uf.ok());
  const size_t rows_before = (*db)->TotalRows();
  const uint64_t epoch_before = (*db)->commit_epoch();

  CheckOptions dry;
  dry.apply = false;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(seed + static_cast<uint32_t>(t));
      auto ctx = (*db)->CreateContext();
      for (int i = 0; i < kChecksPerReader; ++i) {
        auto snap = (*db)->OpenSnapshot();
        ctx->PinReadSnapshot(snap);
        std::string update = fixtures::ChainDeleteUpdate(
            static_cast<int>(rng() % kDepth),
            static_cast<int64_t>(rng() % kRows));
        auto plan = (*uf)->Prepare(update, nullptr, ctx.get());
        auto fast = (*uf)->TryCheckReadOnly(*plan, dry, ctx.get());
        ctx->ClearReadSnapshot();
        EXPECT_TRUE(fast.has_value());
        if (fast.has_value()) {
          EXPECT_EQ(fast->outcome, CheckOutcome::kExecuted)
              << fast->Describe();
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();

  // Pure check-only traffic: no rows changed, no version ever published
  // beyond the first on-demand one, nothing retained or retired.
  EXPECT_EQ((*db)->TotalRows(), rows_before);
  EXPECT_LE((*db)->commit_epoch(), std::max<uint64_t>(epoch_before, 1));
  EXPECT_EQ((*db)->retained_version_count(), 0u);
  EXPECT_EQ(obs::SampleValue((*db)->registry().Collect(),
                              "mvcc_versions_retired"),
            0u);
}

}  // namespace
}  // namespace ufilter
