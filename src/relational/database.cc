#include "relational/database.h"

#include <algorithm>
#include <array>
#include <list>

#include "common/strings.h"
#include "relational/wal.h"

namespace ufilter::relational {

namespace {

size_t HashOneValue(const Value& v) {
  return static_cast<size_t>(0x345678) * 1000003 ^ v.Hash();
}

/// The bucket hash of every index: values[cols[0]], values[cols[1]], ...
size_t HashKey(const Value* values, const std::vector<int>& cols) {
  size_t h = 0x345678;
  for (int c : cols) h = h * 1000003 ^ values[c].Hash();
  return h;
}

bool AnyNull(const Value* values, const std::vector<int>& cols) {
  for (int c : cols) {
    if (values[c].is_null()) return true;
  }
  return false;
}

}  // namespace

size_t Table::HashRowValues(const Row& row, const std::vector<int>& cols) {
  return HashKey(row.data(), cols);
}

bool Table::RowValuesEqual(const Row& a, const Row& b,
                           const std::vector<int>& cols) {
  return KeyMatches(a, cols, b.data(), cols);
}

bool Table::AnyValueNull(const Row& row, const std::vector<int>& cols) {
  return AnyNull(row.data(), cols);
}

// ---------------------------------------------------------------- Table ---

Table::Table(const TableSchema* schema) : schema_(schema) {
  // Unique index over the primary key.
  if (!schema_->primary_key().empty()) {
    Index idx;
    idx.unique = true;
    for (const std::string& c : schema_->primary_key()) {
      idx.column_idx.push_back(schema_->ColumnIndex(c));
    }
    indexes_.push_back(std::move(idx));
  }
  // Unique index per UNIQUE column.
  for (size_t i = 0; i < schema_->columns().size(); ++i) {
    if (schema_->columns()[i].unique) {
      Index idx;
      idx.unique = true;
      idx.column_idx.push_back(static_cast<int>(i));
      indexes_.push_back(std::move(idx));
    }
  }
  // Non-unique index per foreign key column set.
  for (const ForeignKey& fk : schema_->foreign_keys()) {
    Index idx;
    idx.unique = false;
    for (const std::string& c : fk.columns) {
      idx.column_idx.push_back(schema_->ColumnIndex(c));
    }
    // Skip if it duplicates the PK index column set.
    bool dup = false;
    for (const Index& existing : indexes_) {
      if (existing.column_idx == idx.column_idx) dup = true;
    }
    if (!dup) indexes_.push_back(std::move(idx));
  }
}

const Row* Table::GetRow(RowId id) const {
  if (id < 0 || static_cast<size_t>(id) >= rows_.size()) return nullptr;
  const auto& slot = rows_[static_cast<size_t>(id)];
  return slot.has_value() ? &*slot : nullptr;
}

std::vector<RowId> Table::AllRowIds() const {
  std::vector<RowId> out;
  out.reserve(live_count_);
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (rows_[i].has_value()) out.push_back(static_cast<RowId>(i));
  }
  return out;
}

const Table::Index* Table::FindIndexFor(const std::string& column) const {
  return FindIndexForColumn(schema_->ColumnIndex(column));
}

const Table::Index* Table::FindIndexForColumn(int column_idx) const {
  if (column_idx < 0) return nullptr;
  const Index* found = nullptr;
  for (const Index& idx : indexes_) {
    if (idx.column_idx.size() != 1 || idx.column_idx[0] != column_idx) {
      continue;
    }
    // Prefer unique indexes (most selective).
    if (idx.unique) return &idx;
    if (found == nullptr) found = &idx;
  }
  return found;
}

bool Table::HasIndexOn(const std::string& column) const {
  return FindIndexFor(column) != nullptr;
}

bool Table::HasIndexOnColumn(int column_idx) const {
  return FindIndexForColumn(column_idx) != nullptr;
}

bool Table::HasUniqueIndexOnColumn(int column_idx) const {
  const Index* idx = FindIndexForColumn(column_idx);
  return idx != nullptr && idx->unique;
}

double Table::EstimateEqMatches(int column_idx) const {
  const Index* idx = FindIndexForColumn(column_idx);
  if (idx == nullptr) return static_cast<double>(live_count_);
  if (idx->unique) return 1.0;
  if (idx->distinct_keys == 0) return 0.0;
  return static_cast<double>(idx->map.size()) /
         static_cast<double>(idx->distinct_keys);
}

void Table::ProbeIndexEq(int column_idx, const Value& v,
                         std::vector<RowId>* out,
                         const EngineCounters* counters) const {
  const Index* idx = FindIndexForColumn(column_idx);
  if (idx == nullptr) return;
  if (counters != nullptr) counters->index_lookups->Inc();
  auto range = idx->map.equal_range(HashOneValue(v));
  for (auto it = range.first; it != range.second; ++it) {
    const Row* row = GetRow(it->second);
    if (row != nullptr && (*row)[static_cast<size_t>(column_idx)] == v) {
      out->push_back(it->second);
    }
  }
}

std::vector<RowId> Table::Find(const std::vector<ColumnPredicate>& preds,
                               const EngineCounters* counters) const {
  // Drive with a single-column index on an equality predicate, preferring a
  // unique index (most selective: at most one candidate) over the first
  // non-unique hit.
  const Index* driver = nullptr;
  const ColumnPredicate* driver_pred = nullptr;
  for (const ColumnPredicate& p : preds) {
    if (p.op != CompareOp::kEq) continue;
    const Index* idx = FindIndexFor(p.column);
    if (idx == nullptr) continue;
    if (driver == nullptr || (idx->unique && !driver->unique)) {
      driver = idx;
      driver_pred = &p;
      if (driver->unique) break;
    }
  }

  std::vector<RowId> candidates;
  if (driver != nullptr) {
    if (counters != nullptr) counters->index_lookups->Inc();
    // Single-column driver: hash the literal directly, no probe-row alloc.
    const size_t col = static_cast<size_t>(driver->column_idx[0]);
    auto range = driver->map.equal_range(HashOneValue(driver_pred->literal));
    for (auto it = range.first; it != range.second; ++it) {
      const Row* row = GetRow(it->second);
      if (row != nullptr && (*row)[col] == driver_pred->literal) {
        candidates.push_back(it->second);
      }
    }
  } else {
    candidates = AllRowIds();
    if (counters != nullptr) counters->rows_scanned->Add(candidates.size());
  }

  std::vector<RowId> out;
  for (RowId id : candidates) {
    const Row* row = GetRow(id);
    if (row != nullptr && RowMatches(*row, preds)) out.push_back(id);
  }
  // A unique driver yields at most one candidate — already in order.
  if (!(driver != nullptr && driver->unique && out.size() <= 1)) {
    std::sort(out.begin(), out.end());
  }
  return out;
}

bool Table::RowMatches(const Row& row,
                       const std::vector<ColumnPredicate>& preds) const {
  for (const ColumnPredicate& p : preds) {
    int c = schema_->ColumnIndex(p.column);
    if (c < 0 ||
        !EvalCompare(row[static_cast<size_t>(c)], p.op, p.literal)) {
      return false;
    }
  }
  return true;
}

bool Table::KeyMatches(const Row& row, const std::vector<int>& columns,
                       const Value* key_row,
                       const std::vector<int>& key_columns) {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!(row[static_cast<size_t>(columns[i])] == key_row[key_columns[i]])) {
      return false;
    }
  }
  return true;
}

void Table::FindKey(const std::vector<int>& columns, const Value* key_row,
                    const std::vector<int>& key_columns,
                    std::vector<RowId>* out,
                    const EngineCounters* counters) const {
  const Index* index = nullptr;
  for (const Index& idx : indexes_) {
    if (idx.column_idx == columns) {
      index = &idx;
      break;
    }
  }
  if (index == nullptr) {  // scanned in slot order: already ascending
    if (counters != nullptr) counters->rows_scanned->Add(live_count_);
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rows_[i].has_value() &&
          KeyMatches(*rows_[i], columns, key_row, key_columns)) {
        out->push_back(static_cast<RowId>(i));
      }
    }
    return;
  }
  if (counters != nullptr) counters->index_lookups->Inc();
  const auto first = static_cast<std::ptrdiff_t>(out->size());
  auto range = index->map.equal_range(HashKey(key_row, key_columns));
  for (auto it = range.first; it != range.second; ++it) {
    const Row* row = GetRow(it->second);
    if (row != nullptr && KeyMatches(*row, columns, key_row, key_columns)) {
      out->push_back(it->second);
    }
  }
  std::sort(out->begin() + first, out->end());
}

void Table::BulkLoad(std::vector<Row> rows, std::vector<RowId>* ids) {
  rows_.reserve(rows_.size() + rows.size());
  if (ids != nullptr) ids->reserve(ids->size() + rows.size());
  for (Row& row : rows) {
    RowId id = AppendRow(std::move(row));
    if (ids != nullptr) ids->push_back(id);
  }
}

RowId Table::AppendRow(Row row) {
  rows_.emplace_back(std::move(row));
  RowId id = static_cast<RowId>(rows_.size() - 1);
  IndexInsert(id, *rows_.back());
  ++live_count_;
  return id;
}

void Table::EraseRow(RowId id) {
  auto& slot = rows_[static_cast<size_t>(id)];
  if (!slot.has_value()) return;
  IndexErase(id, *slot);
  slot.reset();
  --live_count_;
}

void Table::RestoreRow(RowId id, Row row) {
  auto& slot = rows_[static_cast<size_t>(id)];
  slot = std::move(row);
  IndexInsert(id, *slot);
  ++live_count_;
}

void Table::OverwriteRow(RowId id, Row row) {
  auto& slot = rows_[static_cast<size_t>(id)];
  if (slot.has_value()) IndexErase(id, *slot);
  slot = std::move(row);
  IndexInsert(id, *slot);
}

void Table::PutSlotForRecovery(RowId id, Row row) {
  const size_t slot_idx = static_cast<size_t>(id);
  if (slot_idx >= rows_.size()) rows_.resize(slot_idx + 1);
  auto& slot = rows_[slot_idx];
  if (slot.has_value()) return;  // caller validated; never clobber
  slot = std::move(row);
  IndexInsert(id, *slot);
  ++live_count_;
}

size_t Table::IndexKeyHash(const Index& index, const Row& row) const {
  return HashRowValues(row, index.column_idx);
}

void Table::IndexInsert(RowId id, const Row& row) {
  for (Index& idx : indexes_) {
    size_t h = IndexKeyHash(idx, row);
    if (idx.map.find(h) == idx.map.end()) ++idx.distinct_keys;
    idx.map.emplace(h, id);
  }
}

void Table::IndexErase(RowId id, const Row& row) {
  for (Index& idx : indexes_) {
    size_t h = IndexKeyHash(idx, row);
    auto range = idx.map.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == id) {
        idx.map.erase(it);
        break;
      }
    }
    if (idx.map.find(h) == idx.map.end() && idx.distinct_keys > 0) {
      --idx.distinct_keys;
    }
  }
}

bool Table::SharesUniqueKey(const Row& row, const Row& other) const {
  for (const Index& idx : indexes_) {
    if (idx.unique && !AnyValueNull(row, idx.column_idx) &&
        RowValuesEqual(other, row, idx.column_idx)) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------------------- Database ---

EngineCounters EngineCounters::Bind(obs::Registry* registry) {
  EngineCounters c;
  c.rows_scanned = registry->GetCounter("engine_rows_scanned");
  c.index_lookups = registry->GetCounter("engine_index_lookups");
  c.plans_compiled = registry->GetCounter("engine_plans_compiled");
  c.plan_replays = registry->GetCounter("engine_plan_replays");
  c.hash_join_builds = registry->GetCounter("engine_hash_join_builds");
  c.hash_join_probes = registry->GetCounter("engine_hash_join_probes");
  c.columnar_builds = registry->GetCounter("columnar_builds");
  c.columnar_scan_rows = registry->GetCounter("columnar_scan_rows");
  c.selection_vector_rows = registry->GetCounter("selection_vector_rows");
  c.rows_inserted = registry->GetCounter("engine_rows_inserted");
  c.rows_deleted = registry->GetCounter("engine_rows_deleted");
  c.rows_updated = registry->GetCounter("engine_rows_updated");
  c.undo_records = registry->GetCounter("engine_undo_records");
  c.queries_executed = registry->GetCounter("engine_queries_executed");
  c.updates_compiled = registry->GetCounter("engine_updates_compiled");
  c.star_checks = registry->GetCounter("engine_star_checks");
  c.snapshots_opened = registry->GetCounter("mvcc_snapshots_opened");
  c.versions_retired = registry->GetCounter("mvcc_versions_retired");
  c.wal_records = registry->GetCounter("wal_records");
  c.wal_fsyncs = registry->GetCounter("wal_fsyncs");
  c.wal_bytes = registry->GetCounter("wal_bytes");
  return c;
}

Database::Database(DatabaseSchema schema)
    : counters_(EngineCounters::Bind(&registry_)), schema_(std::move(schema)) {
  // The epochs live under snapshot_mu_; they join a scrape at Collect()
  // time rather than costing a gauge store per snapshot open and close.
  registry_.AddCollector([this](obs::RegistrySnapshot* out) {
    out->push_back({"db_commit_epoch", obs::MetricKind::kGauge,
                    commit_epoch(), {}});
    out->push_back({"db_oldest_pinned_epoch", obs::MetricKind::kGauge,
                    oldest_pinned_epoch(), {}});
  });
  root_context_ = std::make_unique<ExecutionContext>(this);
  tables_.reserve(schema_.tables().size());
  for (size_t i = 0; i < schema_.tables().size(); ++i) {
    tables_.push_back(std::make_shared<Table>(&schema_.tables()[i]));
    table_index_[schema_.tables()[i].name()] = i;
  }
  // Create() validated every FK's tables and columns.
  links_.resize(schema_.tables().size());
  for (size_t t = 0; t < schema_.tables().size(); ++t) {
    const TableSchema& table = schema_.tables()[t];
    for (const ForeignKey& fk : table.foreign_keys()) {
      ForeignKeyLink link;
      link.table = t;
      link.ref_table = table_index_.at(fk.ref_table);
      const TableSchema& ref = schema_.tables()[link.ref_table];
      for (size_t i = 0; i < fk.columns.size(); ++i) {
        const int c = table.ColumnIndex(fk.columns[i]);
        link.columns.push_back(c);
        link.ref_columns.push_back(ref.ColumnIndex(fk.ref_columns[i]));
        if (table.columns()[static_cast<size_t>(c)].not_null) {
          link.not_null = true;
        }
      }
      link.on_delete = fk.on_delete;
      links_[t].own.push_back(std::move(link));
    }
  }
  for (const TableLinks& table : links_) {
    for (const ForeignKeyLink& link : table.own) {
      links_[link.ref_table].referencing.push_back(&link);
    }
  }
}

// ------------------------------------------------- MVCC: epochs/snapshots ---

Snapshot::~Snapshot() {
  // Reclaimed table versions are destroyed after the lock is released (a
  // big table's rows + indexes take a while to free; snapshot opens must
  // not wait behind that).
  Database::Graveyard graveyard;
  {
    std::lock_guard<std::mutex> lock(db_->snapshot_mu_);
    auto it = db_->pinned_epochs_.find(version_->epoch);
    if (it != db_->pinned_epochs_.end()) db_->pinned_epochs_.erase(it);
    // Drop the version reference before GC so use counts reflect the
    // unpin. (This frees at most the small DatabaseVersion struct: any
    // table it exclusively kept alive is held by retired_ too, and goes
    // through the graveyard.)
    version_.reset();
    db_->CollectRetiredLocked(&graveyard);
  }
}

const Table* Snapshot::FindTable(const std::string& name) const {
  auto it = db_->table_index_.find(name);
  if (it == db_->table_index_.end()) return nullptr;
  return version_->tables[it->second].get();
}

void Database::BuildVersionLocked(uint64_t epoch) {
  auto version = std::make_shared<DatabaseVersion>();
  version->epoch = epoch;
  version->tables.assign(tables_.begin(), tables_.end());
  published_ = std::move(version);
  live_dirty_ = false;
}

Result<uint64_t> Database::PublishLocked(Graveyard* graveyard) {
  if (commit_epoch_ >= kMaxCommitEpoch) {
    return Status::InvalidArgument(
        "commit epoch space exhausted (epoch " +
        std::to_string(commit_epoch_) +
        "); no further versions can be published");
  }
  ++commit_epoch_;
  BuildVersionLocked(commit_epoch_);
  if (wal_enabled_.load(std::memory_order_relaxed)) {
    // The epoch's redo ops become its WAL record. Only enqueued here — the
    // file write and fsync happen in FlushWalPending, after the publisher
    // releases snapshot_mu_, so no snapshot open ever waits on the disk.
    wal_pending_.emplace_back(commit_epoch_, std::move(wal_redo_));
    wal_redo_.clear();
  }
  CollectRetiredLocked(graveyard);
  return commit_epoch_;
}

void Database::CollectRetiredLocked(Graveyard* graveyard) {
  size_t kept = 0;
  for (RetiredVersion& retired : retired_) {
    // Reclaimable once the retention list holds the last reference: every
    // other reference — the published version that contained it, any
    // pinned snapshot's DatabaseVersion — is created and released under
    // snapshot_mu_, so use_count()==1 here proves no snapshot can still
    // reach it (raw Table pointers are only ever derived from a live pin).
    // This must NOT additionally wait for the pinned-epoch horizon: a
    // long-lived pin at epoch E only keeps epoch E's own tables alive, and
    // versions superseded after E would otherwise accumulate unboundedly
    // while that pin stays open.
    if (retired.table.use_count() == 1) {
      counters_.versions_retired->Inc();
      graveyard->push_back(std::move(retired.table));
      continue;
    }
    retired_[kept++] = std::move(retired);
  }
  retired_.resize(kept);
}

void Database::EnsurePublishedLocked(Graveyard* graveyard) {
  if (published_ != nullptr) return;
  (void)PublishLocked(graveyard);
  if (published_ == nullptr) {
    // Epoch space exhausted before anything was ever published (reachable
    // only through the test hook): pin the live state under the terminal
    // epoch without consuming it. Ordering still holds — pins are <=
    // commit_epoch_ and later publishes keep failing.
    BuildVersionLocked(commit_epoch_);
  }
}

std::shared_ptr<const Snapshot> Database::OpenSnapshot() {
  Graveyard graveyard;  // declared first: destroyed after the lock releases
  std::shared_ptr<const Snapshot> snapshot;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    const bool had_published = published_ != nullptr;
    const uint64_t epoch_before = commit_epoch_;
    EnsurePublishedLocked(&graveyard);
    if (live_dirty_ && writer_depth_ == 0) {
      // Publish-on-demand from quiescence so the snapshot sees current data.
      // On epoch exhaustion the snapshot pins the last published version.
      (void)PublishLocked(&graveyard);
    }
    // Flush only when this call itself published: a reader arriving in the
    // window between a writer's publish and the writer's flush must not be
    // drafted into paying for that writer's file write / fsync.
    flush = (!had_published || commit_epoch_ != epoch_before) &&
            WalFlushNeededLocked();
    pinned_epochs_.insert(published_->epoch);
    counters_.snapshots_opened->Inc();
    snapshot = std::shared_ptr<const Snapshot>(new Snapshot(this, published_));
  }
  if (flush) FlushWalPending();
  return snapshot;
}

Result<uint64_t> Database::PublishVersion() {
  Graveyard graveyard;  // declared first: destroyed after the lock releases
  std::unique_lock<std::mutex> lock(snapshot_mu_);
  Result<uint64_t> result = PublishLocked(&graveyard);
  const bool flush = WalFlushNeededLocked();
  lock.unlock();
  if (flush) FlushWalPending();
  return result;
}

Database::WriterGuard::WriterGuard(Database* db) : db_(db) {
  Database::Graveyard graveyard;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(db_->snapshot_mu_);
    // Pin down the pre-transaction state first: a snapshot opened while
    // this writer is mid-flight must never see a half-applied sequence, and
    // unpublished mutations from *before* the guard must be committed now —
    // otherwise an AbandonPublish release would silently discard them from
    // every future snapshot (its premise is "live == published at entry").
    db_->EnsurePublishedLocked(&graveyard);
    if (db_->writer_depth_ == 0 && db_->live_dirty_) {
      (void)db_->PublishLocked(&graveyard);
    }
    ++db_->writer_depth_;
    flush = db_->WalFlushNeededLocked();
  }
  if (flush) db_->FlushWalPending();
}

Database::WriterGuard::~WriterGuard() {
  Database::Graveyard graveyard;
  bool flush = false;
  {
    std::lock_guard<std::mutex> lock(db_->snapshot_mu_);
    if (--db_->writer_depth_ == 0 && db_->live_dirty_) {
      if (abandon_publish_) {
        // The transaction rolled everything back: the live tables are
        // byte-identical to the published version, so committing a new
        // epoch would only churn versions and GC for nothing.
        db_->live_dirty_ = false;
        db_->CollectRetiredLocked(&graveyard);
      } else {
        // Epoch exhaustion keeps the last published version pinned-readable;
        // mutations remain visible to live (writer-lane) reads only.
        (void)db_->PublishLocked(&graveyard);
      }
    }
    flush = db_->WalFlushNeededLocked();
  }
  if (flush) db_->FlushWalPending();
}

uint64_t Database::commit_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return commit_epoch_;
}

uint64_t Database::oldest_pinned_epoch() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return pinned_epochs_.empty() ? commit_epoch_ : *pinned_epochs_.begin();
}

size_t Database::retained_version_count() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return retired_.size();
}

void Database::set_commit_epoch_for_testing(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  commit_epoch_ = epoch;
}

Table* Database::WritableBaseTable(size_t idx) {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  live_dirty_ = true;
  std::shared_ptr<Table>& live = tables_[idx];
  if (live.use_count() > 1) {
    // A published version / pinned snapshot still references this table
    // version: retire it and mutate a copy (copy-on-write). Snapshot
    // readers keep probing the old version lock-free.
    retired_.push_back({commit_epoch_, live});
    live = std::make_shared<Table>(*live);
  }
  return live.get();
}

Status Database::RefuseIfPinned(const ExecutionContext* ctx,
                                const std::string& name) const {
  if (ctx == nullptr || ctx->read_snapshot() == nullptr) return Status::OK();
  if (ctx->IsTempTable(name)) return Status::OK();  // session scratch
  if (table_index_.count(name) == 0) return Status::OK();  // NotFound later
  return Status::InvalidArgument(
      "base table '" + name +
      "' is read-only: the context is pinned to a snapshot (epoch " +
      std::to_string(ctx->read_snapshot()->epoch()) + ")");
}

Result<std::unique_ptr<Database>> Database::Create(DatabaseSchema schema) {
  UFILTER_RETURN_NOT_OK(schema.Validate());
  return std::unique_ptr<Database>(new Database(std::move(schema)));
}

Table* Database::BaseTable(const ExecutionContext* ctx, size_t slot) {
  if (ctx != nullptr && ctx->read_snapshot() != nullptr) {
    // Snapshot-pinned context: every base-table read resolves to the
    // pinned epoch's immutable version. Mutation paths never write through
    // it (RunLive refuses pinned contexts), so handing back a non-const
    // pointer to callers that only read is safe.
    return const_cast<Table*>(ctx->read_snapshot()->TableAt(slot));
  }
  return tables_[slot].get();
}

Table* Database::TableByName(const ExecutionContext* ctx,
                             const std::string& name) {
  auto it = table_index_.find(name);
  if (it != table_index_.end()) return BaseTable(ctx, it->second);
  if (ctx != nullptr) {
    // Sessions only read their own temp tables; the const_cast hands the
    // session back mutable access to a table it created itself.
    return const_cast<Table*>(ctx->FindTempTable(name));
  }
  return nullptr;
}

const Table* Database::TableByName(const ExecutionContext* ctx,
                                   const std::string& name) const {
  return const_cast<Database*>(this)->TableByName(ctx, name);
}

Result<Table*> Database::GetTable(const ExecutionContext* ctx,
                                  const std::string& name) {
  Table* t = TableByName(ctx, name);
  if (t == nullptr) return Status::NotFound("no table '" + name + "'");
  return t;
}

Result<const Table*> Database::GetTable(const ExecutionContext* ctx,
                                        const std::string& name) const {
  const Table* t = TableByName(ctx, name);
  if (t == nullptr) return Status::NotFound("no table '" + name + "'");
  return t;
}

Status Database::CheckRowConstraints(const TableSchema& schema,
                                     const Row& row) const {
  if (row.size() != schema.columns().size()) {
    return Status::InvalidArgument(
        "row arity mismatch for table '" + schema.name() + "': got " +
        std::to_string(row.size()) + ", want " +
        std::to_string(schema.columns().size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.columns()[i];
    const Value& v = row[i];
    if (col.not_null && v.is_null()) {
      return Status::ConstraintViolation("column '" + schema.name() + "." +
                                         col.name + "' is NOT NULL");
    }
    if (!v.is_null()) {
      // Domain check: strings into numeric columns are rejected; ints widen
      // into double columns.
      bool domain_ok = true;
      switch (col.type) {
        case ValueType::kInt:
          domain_ok = v.is_int();
          break;
        case ValueType::kDouble:
          domain_ok = v.is_int() || v.is_double();
          break;
        case ValueType::kString:
          domain_ok = v.is_string();
          break;
        case ValueType::kNull:
          domain_ok = false;
          break;
      }
      if (!domain_ok) {
        return Status::ConstraintViolation(
            "value " + v.ToSqlLiteral() + " out of domain " +
            ValueTypeName(col.type) + " for '" + schema.name() + "." +
            col.name + "'");
      }
    }
    for (const CheckPredicate& chk : col.checks) {
      if (!chk.Admits(v)) {
        return Status::ConstraintViolation(
            "CHECK (" + chk.ToString(schema.name() + "." + col.name) +
            ") violated by " + v.ToSqlLiteral());
      }
    }
  }
  return Status::OK();
}

// ------------------------------------------------- live mutation stores ---

void Database::LiveTable::Bind(Database* db, ExecutionContext* ctx,
                               Table* table, size_t slot) {
  db_ = db;
  ctx_ = ctx;
  table_ = table;
  slot_ = slot;
}

const Table* Database::LiveTable::pinned_version() const {
  // A pinned context's base tables are published versions; its writes are
  // refused before they reach a store.
  return !temp() && ctx_->read_snapshot() != nullptr ? table_ : nullptr;
}

void Database::LiveTable::ProbeIndexEq(int column_idx, const Value& v,
                                       std::vector<RowId>* out) const {
  table_->ProbeIndexEq(column_idx, v, out, &db_->counters_);
}

std::vector<RowId> Database::LiveTable::Find(
    const std::vector<ColumnPredicate>& preds) const {
  return table_->Find(preds, &db_->counters_);
}

void Database::LiveTable::FindKey(const std::vector<int>& columns,
                                  const Value* key_row,
                                  const std::vector<int>& key_columns,
                                  std::vector<RowId>* out) const {
  table_->FindKey(columns, key_row, key_columns, out, &db_->counters_);
}

RowId Database::LiveTable::Append(Row row) {
  Table* t = Writable();
  RowId id = t->AppendRow(std::move(row));
  LogUndo(ExecutionContext::UndoKind::kInsert, id, {});
  db_->counters_.rows_inserted->Inc();
  LogRedo(RedoOp::Kind::kInsert, id, t->GetRow(id));
  return id;
}

void Database::LiveTable::Erase(RowId id) {
  Table* t = Writable();
  LogUndo(ExecutionContext::UndoKind::kDelete, id, *t->GetRow(id));
  LogRedo(RedoOp::Kind::kDelete, id, nullptr);
  t->EraseRow(id);
  db_->counters_.rows_deleted->Inc();
}

void Database::LiveTable::Overwrite(RowId id, Row row) {
  Table* t = Writable();
  LogUndo(ExecutionContext::UndoKind::kUpdate, id, *t->GetRow(id));
  t->OverwriteRow(id, std::move(row));
  db_->counters_.rows_updated->Inc();
  LogRedo(RedoOp::Kind::kUpdate, id, t->GetRow(id));
}

Table* Database::LiveTable::Writable() {
  if (!writable_ && !temp()) {  // temp tables are never versioned
    table_ = db_->WritableBaseTable(slot_);
  }
  writable_ = true;
  return table_;
}

void Database::LiveTable::LogUndo(ExecutionContext::UndoKind kind, RowId id,
                                  Row old) {
  ctx_->undo_log_.push_back({kind, schema().name(), id, std::move(old)});
  db_->counters_.undo_records->Inc();
}

void Database::LiveTable::LogRedo(RedoOp::Kind kind, RowId id,
                                  const Row* row) {
  if (!temp()) db_->CaptureRedo(ctx_, kind, schema().name(), id, row);
}

template <typename Pred>
Database::LiveTable* Database::LiveStores::Bound(Pred pred) {
  for (size_t i = 0; i < used_; ++i) {
    if (pred(slots_[i])) return &slots_[i];
  }
  for (LiveTable& t : overflow_) {
    if (pred(t)) return &t;
  }
  return nullptr;
}

TableStore* Database::LiveStores::Base(size_t slot) {
  LiveTable* t = Bound([slot](const LiveTable& t) {
    return t.slot() == slot;
  });
  return t != nullptr ? t : Bind(db_->BaseTable(ctx_, slot), slot);
}

TableStore* Database::LiveStores::Temp(const std::string& name) {
  LiveTable* t = Bound([&name](const LiveTable& t) {
    return t.temp() && t.schema().name() == name;
  });
  if (t != nullptr) return t;
  Table* table = ctx_->FindTempTable(name);
  return table == nullptr ? nullptr : Bind(table, kTempTableSlot);
}

Database::LiveTable* Database::LiveStores::Bind(Table* table, size_t slot) {
  LiveTable& t =
      used_ < slots_.size() ? slots_[used_++] : overflow_.emplace_back();
  t.Bind(db_, ctx_, table, slot);
  return &t;
}

template <typename T, typename Fn>
Result<T> Database::RunLive(ExecutionContext* ctx, const std::string& table,
                            Fn fn) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  LiveStores stores(this, ctx);
  const size_t mark = ctx->Begin();
  Result<T> result = fn(stores);
  if (!result.ok() && ctx->undo_log_size() > mark) ctx->Rollback(mark);
  return result;
}

// ------------------------------------------------------------- mutations ---
// A live store clones (copy-on-write) on its first write, and every check
// runs before the write it guards: a statement rejected before writing, or
// one that matches nothing, clones nothing.

Result<TableStore*> Database::ResolveStore(TableStores& stores,
                                           const std::string& name) const {
  auto it = table_index_.find(name);
  if (it != table_index_.end()) return stores.Base(it->second);
  TableStore* temp = stores.Temp(name);
  if (temp == nullptr) return Status::NotFound("no table '" + name + "'");
  return temp;
}

Status Database::CheckForeignKeysExist(TableStores& stores, size_t slot,
                                       const Row& row) const {
  std::vector<RowId> found;
  for (const ForeignKeyLink& fk : links_[slot].own) {
    if (AnyNull(row.data(), fk.columns)) continue;  // references nothing
    found.clear();
    stores.Base(fk.ref_table)
        ->FindKey(fk.ref_columns, row.data(), fk.columns, &found);
    if (found.empty()) {
      std::vector<std::string> vals;
      for (int c : fk.columns) {
        vals.push_back(row[static_cast<size_t>(c)].ToSqlLiteral());
      }
      return Status::ConstraintViolation(
          "FK violation: " + schema_.tables()[slot].name() + " -> " +
          schema_.tables()[fk.ref_table].name() + " (" + Join(vals, ", ") +
          ") has no referenced row");
    }
  }
  return Status::OK();
}

Result<RowId> Database::InsertRow(TableStores& stores,
                                  const std::string& table, Row row) const {
  UFILTER_ASSIGN_OR_RETURN(TableStore * t, ResolveStore(stores, table));
  UFILTER_RETURN_NOT_OK(CheckRowConstraints(t->schema(), row));
  if (!t->temp()) {
    UFILTER_RETURN_NOT_OK(CheckForeignKeysExist(stores, t->slot(), row));
  }
  if (t->FindUniqueConflict(row, -1) >= 0) {
    return Status::ConstraintViolation("unique key violation on table '" +
                                       table + "'");
  }
  return t->Append(std::move(row));
}

Result<RowId> Database::Insert(ExecutionContext* ctx,
                               const std::string& table, Row row) {
  return RunLive<RowId>(ctx, table, [&](TableStores& stores) {
    return InsertRow(stores, table, std::move(row));
  });
}

Result<RowId> Database::InsertValues(
    TableStores& stores, const std::string& table,
    const std::map<std::string, Value>& values) const {
  UFILTER_ASSIGN_OR_RETURN(TableStore * t, ResolveStore(stores, table));
  Row row(t->schema().columns().size());
  for (const auto& [name, value] : values) {
    int c = t->schema().ColumnIndex(name);
    if (c < 0) {
      return Status::NotFound("no column '" + name + "' in '" + table + "'");
    }
    row[static_cast<size_t>(c)] = value;
  }
  return InsertRow(stores, table, std::move(row));
}

Result<RowId> Database::InsertValues(
    ExecutionContext* ctx, const std::string& table,
    const std::map<std::string, Value>& values) {
  return RunLive<RowId>(ctx, table, [&](TableStores& stores) {
    return InsertValues(stores, table, values);
  });
}

Status Database::DeleteRowInternal(TableStores& stores, TableStore* table,
                                   RowId id, DeleteOutcome* outcome,
                                   DeleteScratch* scratch) const {
  const Row* row = table->GetRow(id);
  if (row == nullptr) return Status::OK();
  const size_t slot = table->slot();
  if (slot != kTempTableSlot && !links_[slot].referencing.empty()) {
    // Handle referencing rows first (policy-driven). Their probes need the
    // referenced key values after the walk may have rewritten this row
    // (SET NULL through a cycle) or moved its table to a copy-on-write
    // clone, so copy those values, at their column positions, before the
    // first write.
    const std::vector<const ForeignKeyLink*>& referencing =
        links_[slot].referencing;
    scratch->path.emplace_back(slot, id);
    const size_t key_at = scratch->keys.size();
    scratch->keys.resize(key_at + row->size());
    for (const ForeignKeyLink* fk : referencing) {
      for (int c : fk->ref_columns) {
        scratch->keys[key_at + static_cast<size_t>(c)] =
            (*row)[static_cast<size_t>(c)];
      }
    }
    for (const ForeignKeyLink* fk : referencing) {
      // A deeper level may have grown `keys`: address it afresh.
      const Value* key = scratch->keys.data() + key_at;
      if (AnyNull(key, fk->ref_columns)) continue;
      TableStore* ref = stores.Base(fk->table);
      const size_t first = scratch->ids.size();
      ref->FindKey(fk->columns, key, fk->ref_columns, &scratch->ids);
      const size_t last = scratch->ids.size();
      if (first == last) continue;
      if (fk->on_delete == DeletePolicy::kRestrict) {
        return Status::ConstraintViolation(
            "delete from '" + table->schema().name() +
            "' restricted: referenced by '" + ref->schema().name() + "'");
      }
      for (size_t i = first; i < last; ++i) {
        const RowId rid = scratch->ids[i];
        if (fk->on_delete == DeletePolicy::kCascade || fk->not_null) {
          // SET NULL is impossible on a NOT NULL FK column; cascade to
          // preserve integrity. A row already on the path closes a cycle:
          // its own level erases it.
          const std::pair<size_t, RowId> child(fk->table, rid);
          if (std::find(scratch->path.begin(), scratch->path.end(), child) !=
              scratch->path.end()) {
            continue;
          }
          UFILTER_RETURN_NOT_OK(
              DeleteRowInternal(stores, ref, rid, outcome, scratch));
          continue;
        }
        const Row* old = ref->GetRow(rid);
        if (old == nullptr) continue;
        Row updated = *old;
        for (int c : fk->columns) {
          updated[static_cast<size_t>(c)] = Value::Null();
        }
        ref->Overwrite(rid, std::move(updated));
        outcome->nulled_rows++;
      }
      scratch->ids.resize(first);
    }
    scratch->keys.resize(key_at);
    scratch->path.pop_back();
  }

  table->Erase(id);
  outcome->deleted_rows++;
  return Status::OK();
}

Result<DeleteOutcome> Database::DeleteWhere(
    TableStores& stores, const std::string& table,
    const std::vector<ColumnPredicate>& preds) const {
  UFILTER_ASSIGN_OR_RETURN(TableStore * t, ResolveStore(stores, table));
  DeleteOutcome outcome;
  DeleteScratch scratch;
  for (RowId id : t->Find(preds)) {
    UFILTER_RETURN_NOT_OK(
        DeleteRowInternal(stores, t, id, &outcome, &scratch));
  }
  return outcome;
}

Result<DeleteOutcome> Database::DeleteWhere(
    ExecutionContext* ctx, const std::string& table,
    const std::vector<ColumnPredicate>& preds) {
  return RunLive<DeleteOutcome>(ctx, table, [&](TableStores& stores) {
    return DeleteWhere(stores, table, preds);
  });
}

Result<DeleteOutcome> Database::DeleteRow(ExecutionContext* ctx,
                                          const std::string& table, RowId id) {
  return RunLive<DeleteOutcome>(
      ctx, table, [&](TableStores& stores) -> Result<DeleteOutcome> {
        UFILTER_ASSIGN_OR_RETURN(TableStore * t, ResolveStore(stores, table));
        DeleteOutcome outcome;
        DeleteScratch scratch;
        UFILTER_RETURN_NOT_OK(
            DeleteRowInternal(stores, t, id, &outcome, &scratch));
        return outcome;
      });
}

Result<int64_t> Database::UpdateWhere(
    TableStores& stores, const std::string& table,
    const std::map<std::string, Value>& assignments,
    const std::vector<ColumnPredicate>& preds) const {
  UFILTER_ASSIGN_OR_RETURN(TableStore * t, ResolveStore(stores, table));
  const TableSchema& schema = t->schema();
  for (const auto& [name, value] : assignments) {
    (void)value;
    if (!schema.HasColumn(name)) {
      return Status::NotFound("no column '" + name + "' in '" + table + "'");
    }
  }
  int64_t updated = 0;
  for (RowId id : t->Find(preds)) {
    const Row* old = t->GetRow(id);
    if (old == nullptr) continue;
    Row next = *old;
    for (const auto& [name, value] : assignments) {
      next[static_cast<size_t>(schema.ColumnIndex(name))] = value;
    }
    UFILTER_RETURN_NOT_OK(CheckRowConstraints(schema, next));
    if (!t->temp()) {
      UFILTER_RETURN_NOT_OK(CheckForeignKeysExist(stores, t->slot(), next));
    }
    if (t->FindUniqueConflict(next, id) >= 0) {
      return Status::ConstraintViolation("unique key violation on table '" +
                                         table + "'");
    }
    t->Overwrite(id, std::move(next));
    ++updated;
  }
  return updated;
}

Result<int64_t> Database::UpdateWhere(
    ExecutionContext* ctx, const std::string& table,
    const std::map<std::string, Value>& assignments,
    const std::vector<ColumnPredicate>& preds) {
  return RunLive<int64_t>(ctx, table, [&](TableStores& stores) {
    return UpdateWhere(stores, table, assignments, preds);
  });
}

void Database::CaptureRedo(const ExecutionContext* ctx, RedoOp::Kind kind,
                           const std::string& table, RowId id,
                           const Row* row) {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  RedoOp op;
  op.kind = kind;
  op.table = table;
  op.row_id = id;
  if (row != nullptr) op.row = *row;
  op.owner = ctx;
  // The matching undo record was just pushed; pairing by index lets a
  // rollback to any savepoint discard exactly the right redo suffix.
  op.undo_mark = static_cast<int64_t>(ctx->undo_log_.size()) - 1;
  // Under snapshot_mu_ so the append is ordered against a concurrent
  // quiescent publish (OpenSnapshot) packaging wal_redo_ into a record.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  wal_redo_.push_back(std::move(op));
}

void Database::DropRedoSince(const ExecutionContext* ctx, size_t mark) {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  wal_redo_.erase(
      std::remove_if(wal_redo_.begin(), wal_redo_.end(),
                     [&](const RedoOp& op) {
                       return op.owner == ctx &&
                              op.undo_mark >= static_cast<int64_t>(mark);
                     }),
      wal_redo_.end());
}

void Database::SealRedoFor(const ExecutionContext* ctx) {
  if (!wal_enabled_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  for (RedoOp& op : wal_redo_) {
    if (op.owner == ctx) {
      op.owner = nullptr;
      op.undo_mark = -1;
    }
  }
}

ExecutionContext::~ExecutionContext() { db_->SealRedoFor(this); }

void ExecutionContext::Checkpoint() {
  // The undo records are about to vanish, so the paired redo ops become
  // un-rollbackable: seal them — they publish with the next epoch's WAL
  // record no matter what this context does afterwards.
  db_->SealRedoFor(this);
  undo_log_.clear();
}

void ExecutionContext::Rollback(size_t mark) {
  // Discard the redo ops of the statements being undone first: the undo
  // walk below rewrites rows directly (bypassing the capture sites), so
  // after it the net effect of [mark, end) is zero on both logs.
  db_->DropRedoSince(this, mark);
  // Base tables resolve through the copy-on-write gate: rolling back must
  // never rewrite a version a snapshot still pins. (A context doing a
  // rollback is by construction not snapshot-pinned — pinned contexts
  // cannot have accumulated undo records.) The resolution is memoized per
  // table: the writable pointer is stable for the rest of the transaction,
  // and re-checking it per undo record would hammer the global snapshot
  // mutex on large rollbacks.
  std::unordered_map<std::string, Table*> writable;
  while (undo_log_.size() > mark) {
    UndoRecord rec = std::move(undo_log_.back());
    undo_log_.pop_back();
    Table* t = FindTempTable(rec.table);
    if (t == nullptr) {
      auto cached = writable.find(rec.table);
      if (cached != writable.end()) {
        t = cached->second;
      } else {
        auto it = db_->table_index_.find(rec.table);
        if (it != db_->table_index_.end()) {
          t = db_->WritableBaseTable(it->second);
        }
        writable.emplace(rec.table, t);
      }
    }
    if (t == nullptr) continue;  // temp table dropped meanwhile
    switch (rec.kind) {
      case UndoKind::kInsert:
        t->EraseRow(rec.row_id);
        break;
      case UndoKind::kDelete:
        t->RestoreRow(rec.row_id, std::move(rec.old_row));
        break;
      case UndoKind::kUpdate:
        t->OverwriteRow(rec.row_id, std::move(rec.old_row));
        break;
    }
  }
}

Result<Table*> ExecutionContext::CreateTempTable(TableSchema schema) {
  std::string name = schema.name();
  if (db_->table_index_.count(name) > 0 || temp_tables_.count(name) > 0) {
    return Status::InvalidArgument("table '" + name + "' already exists");
  }
  temp_schemas_[name] = std::move(schema);
  auto table = std::make_unique<Table>(&temp_schemas_[name]);
  Table* raw = table.get();
  temp_tables_[name] = std::move(table);
  return raw;
}

Status ExecutionContext::BulkLoadTemp(const std::string& name,
                                      std::vector<Row> rows) {
  Table* t = FindTempTable(name);
  if (t == nullptr) {
    return Status::InvalidArgument("'" + name +
                                   "' is not a temp table (BulkLoadTemp "
                                   "bypasses constraint checking)");
  }
  const size_t arity = t->schema().columns().size();
  for (const Row& row : rows) {
    if (row.size() != arity) {
      return Status::InvalidArgument(
          "row arity mismatch for temp table '" + name + "': got " +
          std::to_string(row.size()) + ", want " + std::to_string(arity));
    }
  }
  std::vector<RowId> ids;
  t->BulkLoad(std::move(rows), &ids);
  undo_log_.reserve(undo_log_.size() + ids.size());
  for (RowId id : ids) {
    undo_log_.push_back({UndoKind::kInsert, name, id, {}});
  }
  db_->counters_.rows_inserted->Add(ids.size());
  db_->counters_.undo_records->Add(ids.size());
  return Status::OK();
}

Status ExecutionContext::DropTempTable(const std::string& name) {
  if (temp_tables_.erase(name) == 0) {
    return Status::NotFound("no temp table '" + name + "'");
  }
  temp_schemas_.erase(name);
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->live_row_count();
  return total;
}

}  // namespace ufilter::relational
