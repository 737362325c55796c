// Write-ahead log + checkpoint persistence for the MVCC database.
//
// Durability model (see docs/ARCHITECTURE.md, "Durability & recovery"):
// every *published commit epoch* appends exactly one WAL record carrying
// the logical row-level redo ops of that transaction (captured next to the
// undo log on the writer lane, so a rolled-back op never reaches the WAL).
// A record is framed as
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//
// after an 8-byte file magic; the payload is the epoch plus the op list.
// Recovery replays complete, checksum-valid records in epoch order and
// truncates the file at the first torn/corrupt frame, so a kill -9 mid-write
// always lands the database on a fully published epoch — never a partial
// transaction. Epoch-based checkpoints (an immutable DatabaseVersion
// serialized slot-exactly, tombstones included) bound replay: recovery
// loads the checkpoint and replays only the WAL suffix with larger epochs.
//
// Fsync scheduling is policy-driven: kAlways syncs per record, kGroup
// batches syncs across consecutive commits of the (serial) writer lane —
// the group-commit knob — and kNever leaves flushing to the OS. All file
// I/O happens under its own wal mutex, never under the database's snapshot
// mutex, so snapshot readers never wait behind an fsync.
#ifndef UFILTER_RELATIONAL_WAL_H_
#define UFILTER_RELATIONAL_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/database.h"

namespace ufilter::relational {

/// When WAL appends are fsynced to stable storage.
enum class FsyncPolicy {
  kNever,   ///< never fsync (page cache only; fastest, weakest)
  kGroup,   ///< fsync once per `group_commit_size` appended records
  kAlways,  ///< fsync after every record (strongest, slowest)
};

const char* FsyncPolicyName(FsyncPolicy p);

/// Configuration for Database::EnableDurability / Database::RecoverFrom.
struct DurabilityOptions {
  /// WAL file path; empty means durability stays off.
  std::string wal_path;
  FsyncPolicy fsync_policy = FsyncPolicy::kGroup;
  /// kGroup: fsync once this many records accumulated unsynced.
  size_t group_commit_size = 8;
  /// Optional checkpoint file path (see Database::WriteCheckpoint).
  std::string checkpoint_path;
};

/// One WAL record: the redo ops published under one commit epoch.
struct WalRecord {
  uint64_t epoch = 0;
  std::vector<RedoOp> ops;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of `n` bytes.
uint32_t Crc32(const void* data, size_t n);

/// Serializes / parses one record payload (epoch + ops; no framing).
std::string EncodeWalPayload(const WalRecord& record);
Result<WalRecord> DecodeWalPayload(const std::string& payload);

/// \brief Append-only WAL file writer (POSIX fd, explicit fsync control).
///
/// Not internally synchronized: the Database serializes all calls under its
/// wal mutex (appends come off the serial writer lane anyway).
class WalWriter {
 public:
  /// Opens `path` for appending, writing the file magic when the file is
  /// new and validating it when it already exists (e.g. after recovery).
  /// `counters`, when non-null, receives wal_records/wal_fsyncs/wal_bytes.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, FsyncPolicy policy, size_t group_commit_size,
      const EngineCounters* counters);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Frames, checksums and appends one record, then fsyncs per policy.
  /// Under kGroup the frame is staged in a user-space buffer and reaches
  /// the file in one write()+fsync per group — callers that want the live
  /// file to reflect every append must Sync() first.
  Status Append(const WalRecord& record);

  /// Forces an fsync of any unsynced appends (any policy). No-op when
  /// everything appended is already synced.
  Status Sync();

  /// Pushes any kGroup-staged frames into the file *without* fsyncing, so
  /// a concurrent WalTailer (the replication source) sees every appended
  /// record immediately while the group-commit fsync schedule stays
  /// untouched. No-op for kNever/kAlways (nothing is ever staged).
  Status Flush();

  uint64_t records_appended() const { return records_; }
  uint64_t fsyncs() const { return fsyncs_; }
  uint64_t bytes_written() const { return total_bytes_; }

  /// Crash-injection hook for the kill -9 fuzz harness: once the writer has
  /// emitted `n` total bytes (file magic included), the next write stops at
  /// exactly that offset and the process raises SIGKILL — producing a torn
  /// record at a controlled byte position. Negative disables.
  void set_crash_after_bytes_for_testing(int64_t n) {
    crash_after_bytes_ = n;
  }

 private:
  WalWriter(int fd, FsyncPolicy policy, size_t group_commit_size,
            const EngineCounters* counters)
      : fd_(fd), policy_(policy), group_size_(group_commit_size),
        counters_(counters) {}

  Status WriteRaw(const char* data, size_t n);

  int fd_ = -1;
  FsyncPolicy policy_ = FsyncPolicy::kGroup;
  size_t group_size_ = 8;
  const EngineCounters* counters_ = nullptr;
  uint64_t records_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t unsynced_records_ = 0;
  // kGroup staging area: frames accumulate here and hit the file as one
  // write() at the group boundary, so a group costs one syscall + one
  // fsync instead of group_size_ syscalls + one fsync.
  std::string group_buf_;
  int64_t crash_after_bytes_ = -1;
};

/// Result of scanning a WAL file.
struct WalReadResult {
  /// Complete, checksum-valid records in file order.
  std::vector<WalRecord> records;
  /// Byte length of the valid prefix (the truncation point for a torn
  /// tail). At least the file-magic length for a well-formed file.
  uint64_t valid_bytes = 0;
  /// Bytes exist past the valid prefix: a torn/corrupt tail record.
  bool tail_truncated = false;
};

/// Scans `path`, tolerating a torn or corrupt tail: parsing stops at the
/// first incomplete frame, checksum mismatch or undecodable payload, and
/// everything before it is returned. Missing file is NotFound (callers
/// treat that as an empty log); a present file with a wrong magic is
/// InvalidArgument.
Result<WalReadResult> ReadWal(const std::string& path);

/// \brief Incremental reader over a *live* WAL file: the replication feed.
///
/// Keeps a byte offset into the log and, on each Poll(), returns every
/// record frame that has become complete since the last call. An
/// incomplete tail (the writer is mid-append) is simply "no more records
/// yet" — but a complete-length frame with a CRC or decode failure is real
/// corruption and a permanent error, because an append-only writer never
/// leaves bad bytes *behind* the tail it is extending.
///
/// Not internally synchronized; one tailer per subscriber thread.
class WalTailer {
 public:
  /// One record that became complete in the file.
  struct TailedRecord {
    uint64_t epoch = 0;
    /// EncodeWalPayload bytes (epoch + ops), ready for the wire.
    std::string payload;
    /// File offset just past this record's frame.
    uint64_t end_offset = 0;
  };

  explicit WalTailer(std::string path) : path_(std::move(path)) {}
  ~WalTailer();
  WalTailer(const WalTailer&) = delete;
  WalTailer& operator=(const WalTailer&) = delete;

  /// Reads forward from the current offset; stops early once the batch
  /// holds >= max_batch_bytes of payload. A missing file yields an empty
  /// batch (the writer has not created the log yet).
  Result<std::vector<TailedRecord>> Poll(size_t max_batch_bytes);

  /// Bytes fully consumed (magic + complete frames handed out).
  uint64_t offset() const { return offset_; }

  /// Total file bytes observed so far (consumed + a possibly-incomplete
  /// tail). The shipped-vs-total pair is the subscriber's byte lag.
  uint64_t known_file_bytes() const { return offset_ + pending_.size(); }

 private:
  std::string path_;
  int fd_ = -1;
  bool magic_checked_ = false;
  uint64_t offset_ = 0;
  /// Bytes read past offset_ that do not yet form a complete frame.
  std::string pending_;
};

/// A parsed checkpoint: one immutable DatabaseVersion, slot-exact.
struct CheckpointImage {
  uint64_t epoch = 0;
  /// Per table (schema order at write time): name + the full row-slot
  /// array, tombstones included, so recovered RowIds match exactly.
  std::vector<std::pair<std::string, std::vector<std::optional<Row>>>> tables;
};

/// Serializes a pinned snapshot's tables slot-exactly (no epoch, no
/// framing). Also the state-equality fingerprint the durability tests
/// compare recovered databases with (Database::SerializePublishedState).
std::string EncodeDatabaseState(const DatabaseSchema& schema,
                                const Snapshot& snapshot);

/// Parses an EncodeDatabaseState payload into a CheckpointImage stamped
/// with `epoch` — the wire-bootstrap path (kReplSnapshot); checkpoint
/// *files* go through ReadCheckpointFile, which validates magic + CRC
/// before delegating here.
Result<CheckpointImage> DecodeDatabaseState(uint64_t epoch,
                                            const std::string& state_payload);

/// Full checkpoint file image: magic + CRC frame around epoch + state.
std::string EncodeCheckpointFile(uint64_t epoch,
                                 const std::string& state_payload);
/// Strict parse (checkpoints are written atomically; any damage is fatal).
Result<CheckpointImage> ReadCheckpointFile(const std::string& path);

/// Writes `contents` via temp file + fsync + rename so a crash mid-write
/// never leaves a half-written file at `path`.
Status WriteFileAtomicSynced(const std::string& path,
                             const std::string& contents);

/// Crash-injection hook for the recovery crash-fuzz: a nonzero point makes
/// RecoverFrom raise SIGKILL at a chosen step of the torn-tail truncation
/// (1 = after ftruncate, before the log fsync — the window where a
/// non-durable truncation could resurrect the torn tail). 0 disables.
void SetRecoveryCrashPointForTesting(int point);

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_WAL_H_
