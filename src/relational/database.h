// In-memory relational database: tables with stable row ids, hash indexes on
// keys, constraint-enforcing insert/delete/update, FK delete policies
// (CASCADE / SET NULL / RESTRICT) and undo-log transactions with rollback.
//
// This is the "data storage / Oracle" box of Fig. 5: the substrate U-Filter
// issues probe queries and translated SQL updates against.
//
// Concurrency model (see docs/ARCHITECTURE.md): base tables are
// multiversioned. Every publish (commit) stamps a monotonically increasing
// commit epoch and freezes the current table versions into an immutable
// DatabaseVersion; `OpenSnapshot` pins the latest published version, and a
// context carrying a pinned Snapshot resolves every base-table read against
// it — no lock is held during probe evaluation, and a concurrent writer
// cannot perturb (or race with) the pinned tables because its first
// mutation of a published table copies it (copy-on-write) before touching
// it. Superseded table versions are retired by epoch-based GC once no
// snapshot pins an epoch that could still see them. All *mutable scratch* —
// temp tables and the undo log — lives in an ExecutionContext, one per
// client session. Work counters are registry-owned relaxed atomics, safe
// to bump from any thread. Writers must still be mutually exclusive with
// each other (the service layer's writer lane); snapshot readers need no
// exclusion at all.
#ifndef UFILTER_RELATIONAL_DATABASE_H_
#define UFILTER_RELATIONAL_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "obs/metrics.h"
#include "relational/schema.h"

namespace ufilter::relational {

class ColumnarTable;  // relational/columnar.h

/// A tuple. Values are positional, aligned with TableSchema::columns().
using Row = std::vector<Value>;

/// Stable identifier of a row slot within its table (the engine's ROWID).
using RowId = int64_t;

/// Conjunct of a single-table filter: `column <op> literal`.
struct ColumnPredicate {
  std::string column;
  CompareOp op = CompareOp::kEq;
  Value literal;

  std::string ToString() const {
    return column + " " + CompareOpSymbol(op) + " " + literal.ToSqlLiteral();
  }
};

/// The engine's work counters; benchmarks and tests read them to observe
/// the cost asymmetries the paper's figures rely on (index lookups vs.
/// scans). Each points at a counter owned by the Database's registry and
/// is bound once at construction, so a bump is one relaxed atomic add and
/// the registry is the only place the values live. Bind() names the
/// series: engine_<field>, except the columnar_*, selection_vector_rows,
/// wal_* and mvcc_* (snapshots_opened, versions_retired) families.
struct EngineCounters {
  obs::Counter* rows_scanned;
  obs::Counter* index_lookups;
  /// Physical plans compiled by the cost-based planner (one per ad-hoc
  /// Execute; prepared probes compile once and then only replay).
  obs::Counter* plans_compiled;
  /// Executions of an already-compiled plan (zero name resolution).
  obs::Counter* plan_replays;
  /// One-shot hash tables built for unindexed equi-join sides.
  obs::Counter* hash_join_builds;
  /// Probes served by those hash tables (replaces per-outer-row scans).
  obs::Counter* hash_join_probes;
  /// Columnar caches built (one per table version, on its first
  /// snapshot-pinned scan or hash-join build; see relational/columnar.h).
  obs::Counter* columnar_builds;
  /// Rows fed through vectorized predicate loops or typed hash builds (the
  /// columnar counterpart of rows_scanned).
  obs::Counter* columnar_scan_rows;
  /// Selection-vector entries surviving every fused scan predicate (the
  /// rows a vectorized scan actually hands to the join pipeline).
  obs::Counter* selection_vector_rows;
  obs::Counter* rows_inserted;
  obs::Counter* rows_deleted;
  obs::Counter* rows_updated;
  obs::Counter* undo_records;
  /// SELECT evaluations issued against the engine (probe queries included).
  obs::Counter* queries_executed;
  /// Full compiles (parse + bind + validate) actually performed.
  obs::Counter* updates_compiled;
  /// STAR dynamic-checking runs actually performed.
  obs::Counter* star_checks;
  /// MVCC snapshots pinned via Database::OpenSnapshot.
  obs::Counter* snapshots_opened;
  /// Superseded table versions released by epoch-based GC (each one was a
  /// copy-on-write clone source that no pinned snapshot can still see).
  obs::Counter* versions_retired;
  /// WAL records appended (one per published commit epoch while durable).
  obs::Counter* wal_records;
  /// fsync(2) calls issued by the WAL writer; with the group-commit policy
  /// wal_records / wal_fsyncs is the achieved batching factor.
  obs::Counter* wal_fsyncs;
  /// Bytes appended to the WAL (framing included).
  obs::Counter* wal_bytes;

  /// Registers every series above in `registry`.
  static EngineCounters Bind(obs::Registry* registry);
};

/// \brief One table's storage: tombstoned row slots plus hash indexes.
///
/// An index is built over the primary key (unique), over every UNIQUE column
/// (unique) and over every foreign-key column set (non-unique). Tables
/// created without keys (materialized probe results) have no indexes and are
/// always scanned.
class Table {
 public:
  explicit Table(const TableSchema* schema);

  /// Copy-on-write clone: copies storage and indexes but deliberately NOT
  /// the columnar cache — the clone is the new live (mutable) version, and
  /// stale columns must never be observable through it. Writers therefore
  /// never see (or pay for) columnar state.
  Table(const Table& other)
      : schema_(other.schema_),
        rows_(other.rows_),
        live_count_(other.live_count_),
        indexes_(other.indexes_) {}
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return *schema_; }
  size_t live_row_count() const { return live_count_; }
  /// Number of row slots (live + tombstoned). Slot-exact serialization
  /// (checkpoints, state fingerprints) iterates [0, SlotCount()) so a
  /// recovered table reproduces RowIds, tombstones included.
  size_t SlotCount() const { return rows_.size(); }

  /// Returns the row at `id` or nullptr when out of range / deleted.
  const Row* GetRow(RowId id) const;
  bool IsLive(RowId id) const { return GetRow(id) != nullptr; }

  /// All live row ids in insertion order.
  std::vector<RowId> AllRowIds() const;

  /// Row ids matching all `preds` (conjunction). Uses a unique/non-unique
  /// index when one covers an equality predicate (unique indexes preferred —
  /// most selective); otherwise scans. Results are sorted, except that the
  /// sort is skipped when a unique index yields at most one candidate.
  std::vector<RowId> Find(const std::vector<ColumnPredicate>& preds,
                          const EngineCounters* counters) const;
  /// True when `row` satisfies every predicate of `preds` (the test Find
  /// applies to each candidate).
  bool RowMatches(const Row& row,
                  const std::vector<ColumnPredicate>& preds) const;

  /// Appends to `out`, in ascending order, the rows whose `columns` equal
  /// the key `key_row[key_columns[i]]` (no part NULL). Slot-addressed: one
  /// probe of the index over exactly `columns` (the index every FK column
  /// set has) when there is one, else a scan.
  void FindKey(const std::vector<int>& columns, const Value* key_row,
               const std::vector<int>& key_columns, std::vector<RowId>* out,
               const EngineCounters* counters) const;
  /// True when `row`'s `columns` equal the key FindKey takes.
  static bool KeyMatches(const Row& row, const std::vector<int>& columns,
                         const Value* key_row,
                         const std::vector<int>& key_columns);

  /// Finds a unique-index collision for `row` (other than `self`), or -1.
  RowId FindUniqueConflict(const Row& row, RowId self) const {
    return FindUniqueConflict(row, self,
                              [this](RowId id) { return GetRow(id); });
  }
  /// The same lookup with each stored candidate judged by `image_of(id)`,
  /// its current image (null = gone) in a view layered over this table.
  template <typename ImageOf>
  RowId FindUniqueConflict(const Row& row, RowId self,
                           ImageOf image_of) const {
    for (const Index& idx : indexes_) {
      if (!idx.unique) continue;
      if (AnyValueNull(row, idx.column_idx)) continue;  // NULL never conflicts
      auto range = idx.map.equal_range(HashRowValues(row, idx.column_idx));
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == self) continue;
        const Row* other = image_of(it->second);
        if (other != nullptr && RowValuesEqual(*other, row, idx.column_idx)) {
          return it->second;
        }
      }
    }
    return -1;
  }
  /// True when `other` repeats a non-NULL unique key of `row`: the test
  /// FindUniqueConflict applies, for rows that are in no index bucket.
  bool SharesUniqueKey(const Row& row, const Row& other) const;

  /// True if an index exists whose leading column is `column`.
  bool HasIndexOn(const std::string& column) const;

  // --- Planner / compiled-executor API (slot-addressed, no name lookups) ---

  /// True if a single-column index covers column `column_idx`.
  bool HasIndexOnColumn(int column_idx) const;
  /// True if a single-column *unique* index covers column `column_idx`.
  bool HasUniqueIndexOnColumn(int column_idx) const;

  /// Planner cardinality estimate for an equality on `column_idx`: a unique
  /// index gives 1, a non-unique index gives the average bucket size
  /// (live rows / distinct keys), no index gives live_row_count().
  double EstimateEqMatches(int column_idx) const;

  /// Hash-index equality probe addressed by column index. Appends verified
  /// matches to `out` *unsorted* (the plan executor orders final results
  /// itself) and allocates no probe row. Requires HasIndexOnColumn.
  void ProbeIndexEq(int column_idx, const Value& v, std::vector<RowId>* out,
                    const EngineCounters* counters) const;

  /// Appends `rows` without per-row constraint machinery (storage +
  /// index maintenance only) after one up-front reserve. Callers are
  /// responsible for constraint checking and undo logging; the intended
  /// user is ExecutionContext::BulkLoadTemp for index-free temp tables.
  void BulkLoad(std::vector<Row> rows, std::vector<RowId>* ids);

  /// The lazily built columnar projection of this table version (see
  /// relational/columnar.h). Only valid on an *immutable* table — the
  /// executor calls it solely for base tables resolved through a pinned
  /// snapshot, which copy-on-write protection guarantees will never change
  /// underneath the cache. Thread-safe: concurrent readers of the same
  /// version build once and share; `counters` (nullable) counts the
  /// build. Implemented in columnar.cc.
  std::shared_ptr<const ColumnarTable> columnar(
      const EngineCounters* counters) const;

 private:
  friend class Database;
  friend class ExecutionContext;

  struct Index {
    std::vector<int> column_idx;
    bool unique = false;
    std::unordered_multimap<size_t, RowId> map;
    /// Distinct key hashes currently present (maintained incrementally);
    /// the planner's bucket estimate is live rows / distinct keys.
    size_t distinct_keys = 0;
  };

  // Storage-level mutation; constraint checks live in Database.
  RowId AppendRow(Row row);
  void EraseRow(RowId id);
  void RestoreRow(RowId id, Row row);
  void OverwriteRow(RowId id, Row row);
  /// Recovery-only: places `row` at exactly slot `id` (growing the slot
  /// array with tombstones as needed) and maintains indexes/live count.
  /// The slot must currently be empty.
  void PutSlotForRecovery(RowId id, Row row);

  // Index-key helpers: the bucket hash and key equality of every index.
  static size_t HashRowValues(const Row& row, const std::vector<int>& cols);
  static bool RowValuesEqual(const Row& a, const Row& b,
                             const std::vector<int>& cols);
  static bool AnyValueNull(const Row& row, const std::vector<int>& cols);

  size_t IndexKeyHash(const Index& index, const Row& row) const;
  void IndexInsert(RowId id, const Row& row);
  void IndexErase(RowId id, const Row& row);
  const Index* FindIndexFor(const std::string& column) const;
  const Index* FindIndexForColumn(int column_idx) const;

  const TableSchema* schema_;
  std::vector<std::optional<Row>> rows_;
  size_t live_count_ = 0;
  std::vector<Index> indexes_;

  /// Columnar cache (see columnar()). The version dies with the Table, so
  /// epoch GC reclaims columns together with their retired version. Mutable
  /// because building the cache is a logically-const read-path operation;
  /// the mutex only serializes the one-time build, never steady-state reads
  /// (callers hold their own shared_ptr once built).
  mutable std::mutex columnar_mu_;
  mutable std::shared_ptr<const ColumnarTable> columnar_;
};

/// Outcome of a delete: how many rows went away per table (cascades count).
struct DeleteOutcome {
  int64_t deleted_rows = 0;   ///< total rows removed across tables
  int64_t nulled_rows = 0;    ///< rows whose FK columns were SET NULL
};

/// The slot of a table that has none in DatabaseSchema::tables(): a
/// context's temp table.
inline constexpr size_t kTempTableSlot = static_cast<size_t>(-1);

/// \brief One table as Database's mutation code sees it: the narrow surface
/// its constraint checks and FK delete walk run against.
///
/// Two implementations: the live table behind an ExecutionContext, and
/// DryRunOps's throwaway overlay (relational/dryrun.h). Reads see the
/// store's own earlier writes; Find and FindKey return ascending RowIds,
/// like Table::Find.
class TableStore {
 public:
  virtual const TableSchema& schema() const = 0;
  /// The table's position in DatabaseSchema::tables(), or kTempTableSlot.
  virtual size_t slot() const = 0;
  /// Session-local scratch: exempt from FK checks, never redo-logged.
  bool temp() const { return slot() == kTempTableSlot; }
  virtual const Row* GetRow(RowId id) const = 0;
  virtual std::vector<RowId> Find(
      const std::vector<ColumnPredicate>& preds) const = 0;
  /// Table::FindKey over the store's current rows: appends to `out` and
  /// leaves what `out` already held alone.
  virtual void FindKey(const std::vector<int>& columns, const Value* key_row,
                       const std::vector<int>& key_columns,
                       std::vector<RowId>* out) const = 0;
  virtual RowId FindUniqueConflict(const Row& row, RowId self) const = 0;
  virtual RowId Append(Row row) = 0;
  virtual void Erase(RowId id) = 0;
  virtual void Overwrite(RowId id, Row row) = 0;

 protected:
  ~TableStore() = default;
};

/// The stores of the tables one mutation call touches (each valid until
/// the call ends). Database resolves a table name to its slot itself.
class TableStores {
 public:
  /// Base table `slot` (DatabaseSchema::tables() order).
  virtual TableStore* Base(size_t slot) = 0;
  /// The call's temp table `name`, or null when the context has none.
  virtual TableStore* Temp(const std::string& name) = 0;

 protected:
  ~TableStores() = default;
};

class Database;
class ExecutionContext;
class WalWriter;
struct DurabilityOptions;
struct WalRecord;       // wal.h
struct CheckpointImage;  // wal.h

/// One logical row-level redo operation destined for the WAL. Captured at
/// every base-table mutation site, right next to the matching undo record;
/// the pairing (`owner` context + `undo_mark` index into its undo log) lets
/// a rollback discard exactly the redo ops of the undone statement, so a
/// published WAL record only ever carries committed effects. Replay applies
/// ops verbatim by RowId — cascades, SET NULL rewrites and multi-table
/// sequences recover without re-running constraint logic.
struct RedoOp {
  enum class Kind : uint8_t { kInsert = 0, kDelete = 1, kUpdate = 2 };
  Kind kind = Kind::kInsert;
  std::string table;
  RowId row_id = 0;
  /// New row image for kInsert / kUpdate; empty for kDelete.
  Row row;
  /// Rollback pairing (not serialized): the context that logged the
  /// matching undo record, and that record's index in its undo log.
  /// Sealed (nullptr / -1) once the op can no longer be rolled back.
  const ExecutionContext* owner = nullptr;
  int64_t undo_mark = -1;
};

/// \brief One published, immutable state of all base tables.
///
/// A publish ("commit") freezes the current table versions under a fresh
/// commit epoch. The table pointers are shared with the live state until a
/// writer's first post-publish mutation copies the table (copy-on-write), so
/// publishing is O(#tables), not O(rows). Immutable after construction;
/// safe to read from any thread with no lock.
struct DatabaseVersion {
  uint64_t epoch = 0;
  /// Aligned with DatabaseSchema::tables().
  std::vector<std::shared_ptr<const Table>> tables;
};

/// \brief An RAII pin of one published DatabaseVersion.
///
/// While a Snapshot is alive, every table version it references is retained
/// (shared_ptr) and its epoch is excluded from garbage collection, so reads
/// through it are stable no matter how many commits happen concurrently.
/// Closing the snapshot (destruction) unpins the epoch and runs GC. The
/// Database must outlive all of its snapshots.
class Snapshot {
 public:
  ~Snapshot();
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

  /// The commit epoch this snapshot is pinned to.
  uint64_t epoch() const { return version_->epoch; }

  /// The pinned version of base table `idx` (schema order).
  const Table* TableAt(size_t idx) const { return version_->tables[idx].get(); }

  /// Resolves a *base* table by name at the pinned epoch (temp tables are
  /// per-context, never versioned). Null when no such base table exists.
  const Table* FindTable(const std::string& name) const;

 private:
  friend class Database;
  Snapshot(Database* db, std::shared_ptr<const DatabaseVersion> version)
      : db_(db), version_(std::move(version)) {}

  Database* db_;
  std::shared_ptr<const DatabaseVersion> version_;
};

/// \brief Per-session mutable scratch: temp tables and the undo log.
///
/// Everything a check session may create or rewind lives here, not in the
/// shared Database: materialized probe results (the paper's "TAB_book"),
/// savepoints, undo records. Two sessions holding separate contexts can
/// probe the same Database concurrently without sharing any mutable state;
/// one session's temp tables are invisible to another's queries.
///
/// The context is NOT internally synchronized: a session must not run two
/// mutating operations on its own context concurrently (the service layer's
/// writer lane guarantees this).
class ExecutionContext {
 public:
  explicit ExecutionContext(Database* db) : db_(db) {}
  /// Seals any redo ops still paired with this context's undo log (they
  /// can no longer be rolled back once the context is gone).
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  Database* database() const { return db_; }

  // --- Transactions (per-context undo log, nested savepoints) ---

  /// Marks a savepoint; returns its handle.
  size_t Begin() { return undo_log_.size(); }
  /// Releases savepoint `mark`, keeping the changes. Undo records are
  /// retained so an *outer* savepoint can still roll them back; call
  /// `Checkpoint` to discard the log once no savepoint is outstanding.
  void Commit(size_t mark) { (void)mark; }
  /// Undoes everything back to savepoint `mark`.
  void Rollback(size_t mark);
  /// Declares the current state rollback-free: clears the whole undo log
  /// (and seals the paired redo ops — they will publish with the next
  /// epoch's WAL record no matter what). Invalidates all savepoints.
  void Checkpoint();
  /// Number of undo records currently held (for tests).
  size_t undo_log_size() const { return undo_log_.size(); }

  // --- Temp tables (session-local, index-free scratch) ---

  /// Creates an index-free scratch table (materialized probe results). The
  /// name must not collide with a base table or another temp table of this
  /// context; other contexts' temp tables do not conflict.
  Result<Table*> CreateTempTable(TableSchema schema);

  /// Bulk-loads materialized probe rows into temp table `name`: one arity
  /// check per row, no FK/unique/domain machinery (index-free temp tables
  /// can never trip either), one storage reserve. Rows are still undo-logged
  /// so savepoint rollback removes them while the table is alive.
  Status BulkLoadTemp(const std::string& name, std::vector<Row> rows);
  Status DropTempTable(const std::string& name);
  bool IsTempTable(const std::string& name) const {
    return temp_tables_.count(name) > 0;
  }

  // --- Read snapshot (MVCC pin for check-only sessions) ---

  /// Pins `snapshot`: until cleared, every *base-table* read resolved
  /// through this context sees the snapshot's epoch, and every base-table
  /// mutation is refused (a pinned context is read-only by construction —
  /// this is what excludes lost updates / write skew from the snapshot
  /// path). Temp tables stay live: they are session-local scratch.
  void PinReadSnapshot(std::shared_ptr<const Snapshot> snapshot) {
    read_snapshot_ = std::move(snapshot);
  }
  void ClearReadSnapshot() { read_snapshot_.reset(); }
  const Snapshot* read_snapshot() const { return read_snapshot_.get(); }

 private:
  friend class Database;

  enum class UndoKind { kInsert, kDelete, kUpdate };
  struct UndoRecord {
    UndoKind kind;
    std::string table;
    RowId row_id;
    Row old_row;  // for kDelete / kUpdate
  };

  Table* FindTempTable(const std::string& name) {
    auto it = temp_tables_.find(name);
    return it == temp_tables_.end() ? nullptr : it->second.get();
  }
  const Table* FindTempTable(const std::string& name) const {
    auto it = temp_tables_.find(name);
    return it == temp_tables_.end() ? nullptr : it->second.get();
  }

  Database* db_;
  // Reference stability matters: Table objects point into temp_schemas_.
  std::unordered_map<std::string, std::unique_ptr<Table>> temp_tables_;
  std::unordered_map<std::string, TableSchema> temp_schemas_;
  std::vector<UndoRecord> undo_log_;
  std::shared_ptr<const Snapshot> read_snapshot_;
};

/// \brief The database: schema + shared base tables + work counters.
///
/// All mutating calls are recorded in an ExecutionContext's undo log (the
/// context passed explicitly, or the database's built-in root context for
/// the single-session convenience API — every legacy call site keeps
/// working). This mirrors what the Fig. 14 baseline needs: blind
/// translation, side-effect detection, rollback.
class Database {
 public:
  /// Validates and adopts the schema, creating empty tables.
  static Result<std::unique_ptr<Database>> Create(DatabaseSchema schema);

  /// Best-effort drain of pending WAL records + final fsync.
  ~Database();

  const DatabaseSchema& schema() const { return schema_; }

  /// The engine's metric registry: the work counters below, the
  /// db_commit_epoch / db_oldest_pinned_epoch gauges, and the series
  /// other layers over this database register (the plan cache's).
  /// Readers diff two Collect() snapshots (obs::CounterWindow).
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }
  /// The work counters, for the sites that bump them.
  const EngineCounters& counters() const { return counters_; }

  /// The built-in context the single-session convenience API runs against.
  ExecutionContext* root_context() { return root_context_.get(); }
  /// A fresh context for a new session. The Database must outlive it.
  std::unique_ptr<ExecutionContext> CreateContext() {
    return std::make_unique<ExecutionContext>(this);
  }

  // --- MVCC: commit epochs, snapshots, garbage collection ---

  /// Largest publishable commit epoch (the last value is reserved so the
  /// counter can never wrap and reorder pinned epochs).
  static constexpr uint64_t kMaxCommitEpoch =
      std::numeric_limits<uint64_t>::max() - 1;

  /// Pins the latest published state. When unpublished mutations exist and
  /// no WriterGuard is active, they are published first, so a snapshot
  /// opened from quiescence always sees current data. Cheap: a mutex-guarded
  /// pointer copy — the returned snapshot is then read with **no lock**.
  std::shared_ptr<const Snapshot> OpenSnapshot();

  /// Publishes the live tables under the next commit epoch and retires what
  /// GC allows. Fails (and changes nothing) once the epoch space is
  /// exhausted (see kMaxCommitEpoch). Usually called through WriterGuard.
  Result<uint64_t> PublishVersion();

  /// Marks a writer transaction: while at least one guard is alive,
  /// OpenSnapshot will not auto-publish (snapshots must never observe a
  /// half-applied op sequence); the last guard to release publishes the
  /// accumulated mutations as one commit. Writers must already be mutually
  /// exclusive with each other (the service's writer lane).
  class WriterGuard {
   public:
    explicit WriterGuard(Database* db);
    ~WriterGuard();
    WriterGuard(const WriterGuard&) = delete;
    WriterGuard& operator=(const WriterGuard&) = delete;

    /// Declares that this transaction will leave no *net* change (e.g. the
    /// check-only execute/rollback protocol): on release the guard skips
    /// the publish and clears the dirty flag instead of committing a new
    /// epoch whose content is byte-identical to the previous one. Any
    /// copy-on-write clone made meanwhile simply becomes the live version
    /// (same content, so snapshots of the old version stay exact).
    void AbandonPublish() { abandon_publish_ = true; }

   private:
    Database* db_;
    bool abandon_publish_ = false;
  };

  /// Epoch of the latest published version.
  uint64_t commit_epoch() const;
  /// Smallest epoch any open snapshot pins (== commit_epoch() when none).
  uint64_t oldest_pinned_epoch() const;
  /// Superseded table versions still retained for pinned snapshots.
  size_t retained_version_count() const;
  /// Test hook for the overflow guard: jumps the epoch counter (e.g. to
  /// kMaxCommitEpoch) without publishing.
  void set_commit_epoch_for_testing(uint64_t epoch);

  /// Resolves `name` among base tables and `ctx`'s temp tables (null ctx =
  /// base tables only).
  Result<Table*> GetTable(const ExecutionContext* ctx,
                          const std::string& name);
  Result<const Table*> GetTable(const ExecutionContext* ctx,
                                const std::string& name) const;
  Result<Table*> GetTable(const std::string& name) {
    return GetTable(root_context_.get(), name);
  }
  Result<const Table*> GetTable(const std::string& name) const {
    return GetTable(root_context_.get(), name);
  }

  // --- Mutations (undo-logged into the given context) ---

  /// Inserts a row, enforcing NOT NULL, CHECK, PK/UNIQUE and FK existence.
  Result<RowId> Insert(ExecutionContext* ctx, const std::string& table,
                       Row row);
  Result<RowId> Insert(const std::string& table, Row row) {
    return Insert(root_context_.get(), table, std::move(row));
  }

  /// Inserts from a column-name/value mapping; missing columns become NULL.
  Result<RowId> InsertValues(ExecutionContext* ctx, const std::string& table,
                             const std::map<std::string, Value>& values);
  Result<RowId> InsertValues(const std::string& table,
                             const std::map<std::string, Value>& values) {
    return InsertValues(root_context_.get(), table, values);
  }

  /// Deletes all rows matching `preds`, honoring FK delete policies
  /// transitively. kRestrict aborts the whole delete with
  /// ConstraintViolation (nothing is applied thanks to the undo log).
  Result<DeleteOutcome> DeleteWhere(ExecutionContext* ctx,
                                    const std::string& table,
                                    const std::vector<ColumnPredicate>& preds);
  Result<DeleteOutcome> DeleteWhere(
      const std::string& table, const std::vector<ColumnPredicate>& preds) {
    return DeleteWhere(root_context_.get(), table, preds);
  }

  /// Deletes one row by id (same policy handling).
  Result<DeleteOutcome> DeleteRow(ExecutionContext* ctx,
                                  const std::string& table, RowId id);
  Result<DeleteOutcome> DeleteRow(const std::string& table, RowId id) {
    return DeleteRow(root_context_.get(), table, id);
  }

  /// Sets `assignments` on all rows matching `preds`; enforces the same
  /// constraints as Insert. Returns the number of rows updated.
  Result<int64_t> UpdateWhere(ExecutionContext* ctx, const std::string& table,
                              const std::map<std::string, Value>& assignments,
                              const std::vector<ColumnPredicate>& preds);
  Result<int64_t> UpdateWhere(const std::string& table,
                              const std::map<std::string, Value>& assignments,
                              const std::vector<ColumnPredicate>& preds) {
    return UpdateWhere(root_context_.get(), table, assignments, preds);
  }

  // --- The same mutation code against caller-supplied stores ---
  // The calls above run these on their context's live tables, after
  // refusing a snapshot-pinned context and before rolling a failed
  // statement back. DryRunOps runs them on an overlay. Every write goes
  // through `stores`; the Database itself is never touched.

  Result<RowId> InsertValues(TableStores& stores, const std::string& table,
                             const std::map<std::string, Value>& values) const;
  Result<DeleteOutcome> DeleteWhere(
      TableStores& stores, const std::string& table,
      const std::vector<ColumnPredicate>& preds) const;
  Result<int64_t> UpdateWhere(TableStores& stores, const std::string& table,
                              const std::map<std::string, Value>& assignments,
                              const std::vector<ColumnPredicate>& preds) const;

  // --- Transactions on the root context (single-session convenience) ---

  size_t Begin() { return root_context_->Begin(); }
  void Commit(size_t mark) { root_context_->Commit(mark); }
  void Rollback(size_t mark) { root_context_->Rollback(mark); }
  void Checkpoint() { root_context_->Checkpoint(); }
  size_t undo_log_size() const { return root_context_->undo_log_size(); }

  // --- Temp tables on the root context (single-session convenience) ---

  Result<Table*> CreateTempTable(TableSchema schema) {
    return root_context_->CreateTempTable(std::move(schema));
  }
  Status BulkLoadTemp(const std::string& name, std::vector<Row> rows) {
    return root_context_->BulkLoadTemp(name, std::move(rows));
  }
  Status DropTempTable(const std::string& name) {
    return root_context_->DropTempTable(name);
  }
  bool IsTempTable(const std::string& name) const {
    return root_context_->IsTempTable(name);
  }

  /// Total live rows over all permanent tables (scale reporting in benches).
  size_t TotalRows() const;

  // --- Durability: write-ahead log, checkpoints, crash recovery ---
  // (implemented in wal.cc together with the file formats; see wal.h)

  /// Turns on WAL durability: from now on every published commit epoch
  /// appends one logical-redo record to `opts.wal_path` (created if
  /// missing, extended if present — e.g. right after RecoverFrom), fsynced
  /// per `opts.fsync_policy`. Mutations from *before* this call are not in
  /// the log; for a pre-populated database write a checkpoint right after
  /// enabling, or recovery will miss the seed data. Fails if durability is
  /// already enabled. Not concurrency-safe with in-flight writers: call it
  /// during setup, before the writer lane opens.
  Status EnableDurability(const DurabilityOptions& opts);
  bool durability_enabled() const {
    return wal_enabled_.load(std::memory_order_acquire);
  }
  /// First WAL append/fsync error, sticky (Status::OK while healthy).
  Status wal_status() const;
  /// Drains pending records and forces an fsync regardless of policy (the
  /// shutdown barrier). OK and a no-op when durability is off.
  Status SyncWal();

  /// Serializes the currently published version (publishing quiescent
  /// mutations first, like OpenSnapshot) atomically to `path` and returns
  /// its epoch. Recovery from {checkpoint, WAL} then replays only the WAL
  /// records with larger epochs. Reading the version is free — it is an
  /// immutable MVCC snapshot — so writers are never blocked by this.
  Result<uint64_t> WriteCheckpoint(const std::string& path);

  /// Rebuilds the last durable state into this (freshly created, empty,
  /// never-published) database: loads `opts.checkpoint_path` when set and
  /// present, then replays the WAL records of `opts.wal_path` with epochs
  /// past the checkpoint, in strictly increasing epoch order. A torn or
  /// corrupt WAL tail is discarded and physically truncated, so the
  /// database always lands on the last *fully published* epoch. Missing
  /// files mean an empty history (epoch 0). The schema must match what the
  /// log was written against. Call EnableDurability afterwards to resume
  /// appending to the same log.
  Status RecoverFrom(const DurabilityOptions& opts);
  Status RecoverFrom(const std::string& wal_path);

  /// Slot-exact fingerprint of the published tables (wal.h
  /// EncodeDatabaseState): two databases holding identical published data
  /// — e.g. one recovered, one live — compare byte-equal. Test oracle.
  Result<std::string> SerializePublishedState();

  // --- Replication (the follower's apply path; implemented in wal.cc) ---

  /// Bootstraps a freshly created, never-published database from a shipped
  /// state payload (wal.h EncodeDatabaseState) as of `epoch`: the wire twin
  /// of RecoverFrom's checkpoint phase. The loaded state is published under
  /// `epoch` through the normal MVCC path. Durability may already be
  /// enabled — the snapshot itself is never logged (the follower persists
  /// it as a local checkpoint file instead).
  Status LoadReplicatedSnapshot(uint64_t epoch,
                                const std::string& state_payload);

  /// Applies one shipped WAL record and publishes it under exactly
  /// `record.epoch` — Database::RecoverFrom running continuously. Records
  /// at or below the current commit epoch are skipped (idempotent
  /// resume-from-epoch after a reconnect). Requires writer quiescence
  /// (the follower serves check-only traffic; the service's writer lane
  /// serializes the applier with escalated check-only writers): a dirty
  /// live state or an active WriterGuard is an Internal error. When
  /// durability is enabled the record is also appended to the local WAL,
  /// so a restarted follower resumes from its own log. Any apply failure
  /// leaves the database poisoned for replication purposes — the follower
  /// must stop, not skip.
  Status ApplyReplicatedEpoch(const WalRecord& record);

  /// Drains pending WAL records into the log file *without* forcing an
  /// fsync (kGroup staging is flushed to the fd, the fsync schedule is
  /// untouched): makes every published record visible to a WalTailer (the
  /// replication source) at its poll cadence. No-op when durability is off.
  Status FlushWalToFile();

  /// Forwards to WalWriter::set_crash_after_bytes_for_testing (the kill -9
  /// fuzz harness's torn-tail injector). No-op when durability is off.
  void set_wal_crash_after_bytes_for_testing(int64_t n);

 private:
  friend class ExecutionContext;
  friend class Snapshot;
  class LiveTable;
  class LiveStores;

  explicit Database(DatabaseSchema schema);

  /// Runs one mutation statement `fn` on `ctx`'s live tables (null ctx =
  /// the root context): refuses a pinned context first, and undoes a
  /// failed statement's partial writes (a RESTRICT hit mid-cascade).
  template <typename T, typename Fn>
  Result<T> RunLive(ExecutionContext* ctx, const std::string& table, Fn fn);

  /// A foreign key resolved to table and column slots.
  struct ForeignKeyLink {
    size_t table = 0;      ///< the referencing table
    size_t ref_table = 0;  ///< the referenced table
    std::vector<int> columns;      ///< FK columns, in `table`
    std::vector<int> ref_columns;  ///< referenced columns, in `ref_table`
    DeletePolicy on_delete = DeletePolicy::kCascade;
    /// An FK column is NOT NULL: SET NULL is impossible, so it cascades.
    bool not_null = false;
  };
  /// One base table's foreign keys, built once by the constructor: its own
  /// (checked on insert and update), and those that reference it, in the
  /// order the delete walk visits them (referencing table in schema order,
  /// then declaration order).
  struct TableLinks {
    std::vector<ForeignKeyLink> own;
    std::vector<const ForeignKeyLink*> referencing;
  };
  /// One delete call's scratch, used as two stacks by the recursive walk:
  /// each level copies the key values it probes with into `keys` and
  /// probes the referencing rows into `ids`, then pops both.
  struct DeleteScratch {
    std::vector<Value> keys;
    std::vector<RowId> ids;
  };

  /// The store of table `name`: a base table by slot, else a temp table.
  Result<TableStore*> ResolveStore(TableStores& stores,
                                   const std::string& name) const;
  Result<RowId> InsertRow(TableStores& stores, const std::string& table,
                          Row row) const;
  Status CheckRowConstraints(const TableSchema& schema, const Row& row) const;
  Status CheckForeignKeysExist(TableStores& stores, size_t slot,
                               const Row& row) const;
  // Recursive policy-driven delete of row `id` of `table`. Appends to
  // outcome.
  Status DeleteRowInternal(TableStores& stores, TableStore* table, RowId id,
                           DeleteOutcome* outcome,
                           DeleteScratch* scratch) const;

  /// Base table `slot` as `ctx` resolves it: the pinned version for a
  /// snapshot-pinned context, else the live one.
  Table* BaseTable(const ExecutionContext* ctx, size_t slot);
  Table* TableByName(const ExecutionContext* ctx, const std::string& name);
  const Table* TableByName(const ExecutionContext* ctx,
                           const std::string& name) const;

  /// Error when `name` is a base table and `ctx` is pinned to a read
  /// snapshot (pinned contexts are read-only for base tables).
  Status RefuseIfPinned(const ExecutionContext* ctx,
                        const std::string& name) const;
  /// The live version of base table `idx`, cloned first when any published
  /// version / snapshot still references it. Marks the live state dirty.
  Table* WritableBaseTable(size_t idx);

  /// Table versions reclaimed by GC, handed back to the caller so their
  /// deallocation (row storage + index multimaps, possibly huge) happens
  /// *after* snapshot_mu_ is released — freeing under the lock would stall
  /// every concurrent OpenSnapshot.
  using Graveyard = std::vector<std::shared_ptr<const Table>>;

  /// Freezes the live tables into a DatabaseVersion stamped `epoch` and
  /// makes it the published version (snapshot_mu_ held).
  void BuildVersionLocked(uint64_t epoch);
  /// Slot-exact restore of a checkpoint image into the (empty) live tables
  /// (snapshot_mu_ held; the RecoverFrom checkpoint phase and the wire
  /// bootstrap share this).
  Status ApplyCheckpointImageLocked(CheckpointImage&& image);
  /// Publish + GC with snapshot_mu_ held; reclaimed versions land in
  /// `graveyard`.
  Result<uint64_t> PublishLocked(Graveyard* graveyard);
  /// Guarantees published_ != nullptr with snapshot_mu_ held, even when the
  /// epoch space is already exhausted (terminal-epoch pin of the live
  /// state).
  void EnsurePublishedLocked(Graveyard* graveyard);
  /// Moves retired table versions we hold the last reference to (no pinned
  /// snapshot can still observe them) into `graveyard`.
  void CollectRetiredLocked(Graveyard* graveyard);

  // --- WAL internals (see wal.h for the file-format side) ---

  /// Records one redo op into the epoch-in-progress buffer (no-op while
  /// durability is off). Takes snapshot_mu_ so the append is ordered
  /// against any concurrent quiescent publish.
  void CaptureRedo(const ExecutionContext* ctx, RedoOp::Kind kind,
                   const std::string& table, RowId id, const Row* row);
  /// Rollback hook: discards the buffered redo ops whose paired undo
  /// records (owner `ctx`, index >= `mark`) are being undone.
  void DropRedoSince(const ExecutionContext* ctx, size_t mark);
  /// Context checkpoint/teardown hook: unpairs `ctx`'s buffered redo ops
  /// from its (about-to-vanish) undo log.
  void SealRedoFor(const ExecutionContext* ctx);
  /// snapshot_mu_ held: true when the caller should FlushWalPending()
  /// after releasing the lock.
  bool WalFlushNeededLocked() const {
    return wal_enabled_.load(std::memory_order_relaxed) &&
           !wal_pending_.empty();
  }
  /// Appends (and policy-fsyncs) every pending per-epoch record, FIFO.
  /// Takes wal_mu_ for the file I/O and re-takes snapshot_mu_ only for the
  /// brief queue pops — never the other way around, and never holding
  /// snapshot_mu_ across a write or fsync, so snapshot readers don't wait
  /// behind the disk.
  void FlushWalPending();

  /// Declared first so it is destroyed last: everything below (the WAL
  /// writer included) may bump its counters until then.
  obs::Registry registry_;
  EngineCounters counters_;
  DatabaseSchema schema_;
  /// Live (newest) table versions, aligned with schema_. shared_ptr so a
  /// published DatabaseVersion can share a table with the live state until
  /// a writer clones it; single-session flows without snapshots never pay
  /// for a clone and keep stable Table pointers.
  std::vector<std::shared_ptr<Table>> tables_;
  // GetTable sits on every probe's hot path: hashed lookups, not tree walks.
  std::unordered_map<std::string, size_t> table_index_;
  /// Aligned with schema_; never changes after construction, so concurrent
  /// dry runs read it with no lock.
  std::vector<TableLinks> links_;
  std::unique_ptr<ExecutionContext> root_context_;

  /// Guards the version state below: snapshot open/close, publish, the
  /// copy-on-write check-and-swap, and GC. Never held during probe
  /// evaluation — that is the whole point of the snapshot design.
  mutable std::mutex snapshot_mu_;
  /// Epoch of the latest published version; 0 until the first publish
  /// (publishing is lazy so snapshot-free single-session flows never pay
  /// for copy-on-write clones).
  uint64_t commit_epoch_ = 0;
  std::shared_ptr<const DatabaseVersion> published_;
  bool live_dirty_ = false;
  int writer_depth_ = 0;
  std::multiset<uint64_t> pinned_epochs_;
  struct RetiredVersion {
    /// Last published epoch that contained it (diagnostics only — GC is
    /// driven purely by the reference count, see CollectRetiredLocked).
    uint64_t superseded_epoch;
    std::shared_ptr<const Table> table;
  };
  std::vector<RetiredVersion> retired_;

  /// Durability switch; checked (acquire) on every mutation's capture path
  /// so a WAL-free database pays one relaxed-ish load and nothing else.
  std::atomic<bool> wal_enabled_{false};
  /// Redo ops of the epoch in progress (guarded by snapshot_mu_). Publish
  /// moves them into wal_pending_ under the epoch they commit as.
  std::vector<RedoOp> wal_redo_;
  /// Published-but-not-yet-appended records, FIFO (guarded by
  /// snapshot_mu_; drained by FlushWalPending outside it).
  std::deque<std::pair<uint64_t, std::vector<RedoOp>>> wal_pending_;

  /// Guards the WAL file writer and its sticky error status. Lock order:
  /// wal_mu_ before snapshot_mu_; code holding snapshot_mu_ must never
  /// take wal_mu_.
  mutable std::mutex wal_mu_;
  std::unique_ptr<WalWriter> wal_writer_;
  Status wal_status_;
};

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_DATABASE_H_
