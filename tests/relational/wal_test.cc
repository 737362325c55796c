// WAL + checkpoint persistence: record codec round-trips, CRC rejection,
// torn-tail truncation at *every* byte offset, fsync-policy accounting, and
// the recovery equivalences (full replay == live state; checkpoint + WAL
// suffix == full replay). Runs under ASan/UBSan in CI.
#include "relational/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "../support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "relational/database.h"

namespace ufilter::relational {
namespace {

using test_support::TempDir;

WalRecord SampleRecord(uint64_t epoch) {
  WalRecord record;
  record.epoch = epoch;
  RedoOp insert;
  insert.kind = RedoOp::Kind::kInsert;
  insert.table = "t0";
  insert.row_id = 3;
  insert.row = Row{Value::Int(7), Value::String("seven"), Value::Null(),
                   Value::Double(2.5)};
  RedoOp update;
  update.kind = RedoOp::Kind::kUpdate;
  update.table = "t1";
  update.row_id = 0;
  update.row = Row{Value::String("")};  // empty strings must survive
  RedoOp del;
  del.kind = RedoOp::Kind::kDelete;
  del.table = "t0";
  del.row_id = 12;
  record.ops = {insert, update, del};
  return record;
}

void ExpectRecordsEqual(const WalRecord& a, const WalRecord& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  ASSERT_EQ(a.ops.size(), b.ops.size());
  for (size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].kind, b.ops[i].kind) << "op " << i;
    EXPECT_EQ(a.ops[i].table, b.ops[i].table) << "op " << i;
    EXPECT_EQ(a.ops[i].row_id, b.ops[i].row_id) << "op " << i;
    ASSERT_EQ(a.ops[i].row.size(), b.ops[i].row.size()) << "op " << i;
    for (size_t c = 0; c < a.ops[i].row.size(); ++c) {
      EXPECT_TRUE(a.ops[i].row[c] == b.ops[i].row[c])
          << "op " << i << " col " << c;
    }
  }
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
}

TEST(WalCodecTest, PayloadRoundTrip) {
  const WalRecord record = SampleRecord(42);
  const std::string payload = EncodeWalPayload(record);
  Result<WalRecord> back = DecodeWalPayload(payload);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectRecordsEqual(record, *back);
}

TEST(WalCodecTest, EmptyRecordRoundTrip) {
  WalRecord record;
  record.epoch = 1;
  Result<WalRecord> back = DecodeWalPayload(EncodeWalPayload(record));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, 1u);
  EXPECT_TRUE(back->ops.empty());
}

TEST(WalCodecTest, DecodeRejectsTrailingGarbage) {
  std::string payload = EncodeWalPayload(SampleRecord(7));
  payload.push_back('\0');
  EXPECT_FALSE(DecodeWalPayload(payload).ok());
}

TEST(WalCodecTest, DecodeRejectsTruncatedPayload) {
  const std::string payload = EncodeWalPayload(SampleRecord(7));
  for (size_t n = 0; n < payload.size(); ++n) {
    EXPECT_FALSE(DecodeWalPayload(payload.substr(0, n)).ok())
        << "prefix of " << n << " bytes decoded";
  }
}

TEST(WalCodecTest, Crc32KnownVector) {
  // The classic IEEE check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(WalWriterTest, AppendReadRoundTrip) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("round.wal");
  {
    auto writer =
        WalWriter::Open(path, FsyncPolicy::kAlways, 1, nullptr);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t e = 1; e <= 3; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
    EXPECT_EQ((*writer)->records_appended(), 3u);
    EXPECT_EQ((*writer)->fsyncs(), 3u);  // kAlways: one per record
  }
  Result<WalReadResult> read = ReadWal(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->records.size(), 3u);
  EXPECT_FALSE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, std::filesystem::file_size(path));
  for (uint64_t e = 1; e <= 3; ++e) {
    ExpectRecordsEqual(SampleRecord(e), read->records[e - 1]);
  }
}

TEST(WalWriterTest, ReopenAppendsAfterExistingRecords) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("reopen.wal");
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kAlways, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(1)).ok());
  }
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kAlways, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(2)).ok());
  }
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_EQ(read->records[1].epoch, 2u);
}

TEST(WalWriterTest, OpenRejectsForeignFile) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("foreign.wal");
  Dump(path, "definitely not a ufilter WAL file");
  EXPECT_FALSE(WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr).ok());
  EXPECT_FALSE(ReadWal(path).ok());
}

TEST(WalWriterTest, MissingFileIsNotFound) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Result<WalReadResult> read = ReadWal(tmp.path("absent.wal"));
  EXPECT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound());
}

TEST(WalWriterTest, FsyncPolicyAccounting) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  {  // kGroup(4): one fsync per four appends.
    auto writer =
        WalWriter::Open(tmp.path("group.wal"), FsyncPolicy::kGroup, 4,
                        nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 8; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
    EXPECT_EQ((*writer)->fsyncs(), 2u);
    ASSERT_TRUE((*writer)->Append(SampleRecord(9)).ok());
    EXPECT_EQ((*writer)->fsyncs(), 2u);  // 1 unsynced, below threshold
    ASSERT_TRUE((*writer)->Sync().ok());  // explicit barrier
    EXPECT_EQ((*writer)->fsyncs(), 3u);
    ASSERT_TRUE((*writer)->Sync().ok());  // nothing unsynced: no-op
    EXPECT_EQ((*writer)->fsyncs(), 3u);
  }
  {  // kNever: zero until an explicit Sync.
    auto writer =
        WalWriter::Open(tmp.path("never.wal"), FsyncPolicy::kNever, 1,
                        nullptr);
    ASSERT_TRUE(writer.ok());
    for (uint64_t e = 1; e <= 5; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
    }
    EXPECT_EQ((*writer)->fsyncs(), 0u);
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->fsyncs(), 1u);
  }
}

TEST(WalReadTest, CrcCorruptionDropsTailRecord) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("crc.wal");
  uint64_t two_records_bytes = 0;
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(1)).ok());
    ASSERT_TRUE((*writer)->Append(SampleRecord(2)).ok());
    two_records_bytes = (*writer)->bytes_written();
    ASSERT_TRUE((*writer)->Append(SampleRecord(3)).ok());
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  std::string contents = Slurp(path);
  // Flip one payload byte inside the *last* frame (skip its 8-byte header).
  contents[two_records_bytes + 8 + 2] ^= 0x40;
  Dump(path, contents);
  auto read = ReadWal(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 2u);
  EXPECT_TRUE(read->tail_truncated);
  EXPECT_EQ(read->valid_bytes, two_records_bytes);
}

TEST(WalReadTest, TornTailTruncationAtEveryOffset) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp.path("full.wal");
  std::vector<uint64_t> prefix_bytes;  // valid prefix after k records
  {
    auto writer = WalWriter::Open(path, FsyncPolicy::kNever, 1, nullptr);
    ASSERT_TRUE(writer.ok());
    prefix_bytes.push_back((*writer)->bytes_written());  // magic only
    for (uint64_t e = 1; e <= 3; ++e) {
      ASSERT_TRUE((*writer)->Append(SampleRecord(e)).ok());
      prefix_bytes.push_back((*writer)->bytes_written());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
  }
  const std::string contents = Slurp(path);
  ASSERT_EQ(contents.size(), prefix_bytes.back());
  const std::string torn = tmp.path("torn.wal");
  for (size_t cut = 0; cut <= contents.size(); ++cut) {
    Dump(torn, contents.substr(0, cut));
    auto read = ReadWal(torn);
    ASSERT_TRUE(read.ok()) << "cut=" << cut << ": "
                           << read.status().ToString();
    // Complete records strictly below the cut survive; everything after
    // the last complete frame is reported torn.
    size_t expect_records = 0;
    while (expect_records + 1 < prefix_bytes.size() &&
           prefix_bytes[expect_records + 1] <= cut) {
      ++expect_records;
    }
    EXPECT_EQ(read->records.size(), expect_records) << "cut=" << cut;
    const uint64_t expect_valid =
        cut < prefix_bytes.front() ? 0 : prefix_bytes[expect_records];
    EXPECT_EQ(read->valid_bytes, expect_valid) << "cut=" << cut;
    EXPECT_EQ(read->tail_truncated, expect_valid < cut) << "cut=" << cut;
    for (size_t e = 0; e < expect_records; ++e) {
      EXPECT_EQ(read->records[e].epoch, e + 1) << "cut=" << cut;
    }
  }
}

// ----------------------------------------------------------------------
// Database-level durability: replay equivalence oracles.
// ----------------------------------------------------------------------

constexpr int kDepth = 2;
constexpr int kRows = 6;

std::unique_ptr<Database> MakeEmptyChain() {
  auto db = Database::Create(fixtures::MakeChainSchema(kDepth));
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

// Creates a durable chain db at `wal`, populates it and runs `batches`
// deterministic writer batches. Returns the live state fingerprint.
std::string BuildDurableHistory(const std::string& wal, uint32_t seed,
                                int batches, Database** out_db,
                                std::unique_ptr<Database>* holder) {
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kGroup;
  opts.group_commit_size = 4;
  EXPECT_TRUE(db->EnableDurability(opts).ok());
  EXPECT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int i = 0; i < batches; ++i) {
    EXPECT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, seed, i).ok());
  }
  EXPECT_TRUE(db->SyncWal().ok());
  EXPECT_TRUE(db->wal_status().ok());
  Result<std::string> state = db->SerializePublishedState();
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  *out_db = db.get();
  *holder = std::move(db);
  return *state;
}

TEST(WalRecoveryTest, FullReplayReproducesLiveState) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  const std::string expect =
      BuildDurableHistory(tmp.path("db.wal"), 1234, 10, &live, &holder);
  const uint64_t live_epoch = live->commit_epoch();

  std::unique_ptr<Database> recovered = MakeEmptyChain();
  ASSERT_TRUE(recovered->RecoverFrom(tmp.path("db.wal")).ok());
  EXPECT_EQ(recovered->commit_epoch(), live_epoch);
  Result<std::string> state = recovered->SerializePublishedState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, expect) << "recovered state diverged from live state";
}

TEST(WalRecoveryTest, CheckpointPlusSuffixEqualsFullReplay) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  const std::string ckpt = tmp.path("db.ckpt");

  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 99, i).ok());
  }
  // Checkpoint mid-history, then keep writing.
  Result<uint64_t> ckpt_epoch = db->WriteCheckpoint(ckpt);
  ASSERT_TRUE(ckpt_epoch.ok()) << ckpt_epoch.status().ToString();
  EXPECT_EQ(*ckpt_epoch, db->commit_epoch());
  for (int i = 5; i < 9; ++i) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 99, i).ok());
  }
  ASSERT_TRUE(db->SyncWal().ok());
  Result<std::string> live_state = db->SerializePublishedState();
  ASSERT_TRUE(live_state.ok());

  // (a) WAL-only replay.
  std::unique_ptr<Database> wal_only = MakeEmptyChain();
  DurabilityOptions wal_opts;
  wal_opts.wal_path = wal;
  ASSERT_TRUE(wal_only->RecoverFrom(wal_opts).ok());
  // (b) checkpoint + WAL suffix.
  std::unique_ptr<Database> with_ckpt = MakeEmptyChain();
  DurabilityOptions ckpt_opts;
  ckpt_opts.wal_path = wal;
  ckpt_opts.checkpoint_path = ckpt;
  ASSERT_TRUE(with_ckpt->RecoverFrom(ckpt_opts).ok());

  Result<std::string> a = wal_only->SerializePublishedState();
  Result<std::string> b = with_ckpt->SerializePublishedState();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *live_state);
  EXPECT_EQ(*b, *live_state)
      << "checkpoint + suffix diverged from full replay";
  EXPECT_EQ(wal_only->commit_epoch(), db->commit_epoch());
  EXPECT_EQ(with_ckpt->commit_epoch(), db->commit_epoch());
}

TEST(WalRecoveryTest, CheckpointAloneRestoresState) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  const std::string expect =
      BuildDurableHistory(tmp.path("db.wal"), 7, 6, &live, &holder);
  Result<uint64_t> epoch = live->WriteCheckpoint(tmp.path("db.ckpt"));
  ASSERT_TRUE(epoch.ok());

  // No WAL at all: the checkpoint carries the full state.
  std::unique_ptr<Database> recovered = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = tmp.path("missing.wal");
  opts.checkpoint_path = tmp.path("db.ckpt");
  ASSERT_TRUE(recovered->RecoverFrom(opts).ok());
  EXPECT_EQ(recovered->commit_epoch(), *epoch);
  Result<std::string> state = recovered->SerializePublishedState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(*state, expect);
}

TEST(WalRecoveryTest, TruncatesTornTailThenResumesAppending) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(wal, 5, 4, &live, &holder);
  holder.reset();  // release the fd before mangling the file

  // Tear the tail: chop the last 3 bytes of the final record.
  std::string contents = Slurp(wal);
  const std::string full = contents;
  contents.resize(contents.size() - 3);
  Dump(wal, contents);
  auto before = ReadWal(wal);
  ASSERT_TRUE(before.ok());
  const size_t surviving = before->records.size();
  EXPECT_TRUE(before->tail_truncated);

  std::unique_ptr<Database> db = MakeEmptyChain();
  ASSERT_TRUE(db->RecoverFrom(wal).ok());
  // Recovery physically truncated the torn bytes...
  EXPECT_EQ(std::filesystem::file_size(wal), before->valid_bytes);
  // ...so re-enabling durability appends cleanly after the valid prefix.
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 5, 99).ok());
  ASSERT_TRUE(db->SyncWal().ok());
  auto after = ReadWal(wal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->records.size(), surviving + 1);
  EXPECT_FALSE(after->tail_truncated);
}

TEST(WalRecoveryTest, RequiresFreshDatabase) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(tmp.path("db.wal"), 3, 2, &live, &holder);

  std::unique_ptr<Database> used = MakeEmptyChain();
  ASSERT_TRUE(fixtures::PopulateChain(used.get(), kDepth, kRows).ok());
  { Database::WriterGuard guard(used.get()); }  // publish something
  EXPECT_FALSE(used->RecoverFrom(tmp.path("db.wal")).ok())
      << "recovery into a non-fresh database must be refused";
}

TEST(WalDatabaseTest, RolledBackOpsNeverReachTheLog) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  const std::string wal = tmp.path("db.wal");
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = wal;
  opts.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  { Database::WriterGuard guard(db.get()); }  // publish the seed epoch
  ASSERT_TRUE(db->SyncWal().ok());
  auto seeded = ReadWal(wal);
  ASSERT_TRUE(seeded.ok());
  const size_t seed_records = seeded->records.size();
  {
    Database::WriterGuard guard(db.get());
    const size_t mark = db->Begin();
    ASSERT_TRUE(db->Insert("t0", Row{Value::Int(777),
                                     Value::String("doomed")})
                    .ok());
    db->Rollback(mark);
  }
  ASSERT_TRUE(db->SyncWal().ok());
  auto read = ReadWal(wal);
  ASSERT_TRUE(read.ok());
  for (size_t i = seed_records; i < read->records.size(); ++i) {
    EXPECT_TRUE(read->records[i].ops.empty())
        << "epoch " << read->records[i].epoch
        << " logged rolled-back ops";
  }
  // And the replayed state matches: no phantom row 777.
  std::unique_ptr<Database> recovered = MakeEmptyChain();
  ASSERT_TRUE(recovered->RecoverFrom(wal).ok());
  Result<std::string> a = db->SerializePublishedState();
  Result<std::string> b = recovered->SerializePublishedState();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(WalDatabaseTest, EngineCountersTrackAppendsAndSyncs) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = tmp.path("db.wal");
  opts.fsync_policy = FsyncPolicy::kAlways;
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  ASSERT_TRUE(fixtures::PopulateChain(db.get(), kDepth, kRows).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        fixtures::ApplyChainBatch(db.get(), kDepth, kRows, 11, i).ok());
  }
  ASSERT_TRUE(db->SyncWal().ok());
  obs::RegistrySnapshot stats = db->registry().Collect();
  EXPECT_GT(obs::SampleValue(stats, "wal_records"), 0u);
  EXPECT_GT(obs::SampleValue(stats, "wal_bytes"), 0u);
  EXPECT_GE(obs::SampleValue(stats, "wal_fsyncs"),
            obs::SampleValue(stats, "wal_records"));  // kAlways
  // Every published epoch since enabling must have exactly one record.
  auto read = ReadWal(opts.wal_path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), obs::SampleValue(stats, "wal_records"));
  EXPECT_EQ(read->records.back().epoch, db->commit_epoch());
}

TEST(WalDatabaseTest, EnableDurabilityRejectsBadConfig) {
  std::unique_ptr<Database> db = MakeEmptyChain();
  DurabilityOptions empty;
  EXPECT_FALSE(db->EnableDurability(empty).ok());

  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  DurabilityOptions opts;
  opts.wal_path = tmp.path("db.wal");
  ASSERT_TRUE(db->EnableDurability(opts).ok());
  EXPECT_FALSE(db->EnableDurability(opts).ok()) << "double enable";
  EXPECT_TRUE(db->durability_enabled());
}

TEST(WalCheckpointTest, CorruptCheckpointIsFatal) {
  TempDir tmp;
  ASSERT_TRUE(tmp.ok());
  Database* live = nullptr;
  std::unique_ptr<Database> holder;
  BuildDurableHistory(tmp.path("db.wal"), 21, 3, &live, &holder);
  const std::string ckpt = tmp.path("db.ckpt");
  ASSERT_TRUE(live->WriteCheckpoint(ckpt).ok());

  std::string contents = Slurp(ckpt);
  contents[contents.size() / 2] ^= 0x01;
  Dump(ckpt, contents);
  EXPECT_FALSE(ReadCheckpointFile(ckpt).ok());

  std::unique_ptr<Database> recovered = MakeEmptyChain();
  DurabilityOptions opts;
  opts.wal_path = tmp.path("db.wal");
  opts.checkpoint_path = ckpt;
  EXPECT_FALSE(recovered->RecoverFrom(opts).ok())
      << "a damaged checkpoint must fail recovery, not silently degrade";
}

}  // namespace
}  // namespace ufilter::relational
