#include "relational/database.h"

#include <algorithm>

#include "common/strings.h"
#include "relational/wal.h"

namespace ufilter::relational {

namespace {

size_t HashOneValue(const Value& v) {
  return static_cast<size_t>(0x345678) * 1000003 ^ v.Hash();
}

}  // namespace

size_t Table::HashRowValues(const Row& row, const std::vector<int>& cols) {
  size_t h = 0x345678;
  for (int c : cols) {
    h = h * 1000003 ^ row[static_cast<size_t>(c)].Hash();
  }
  return h;
}

bool Table::RowValuesEqual(const Row& a, const Row& b,
                           const std::vector<int>& cols) {
  for (int c : cols) {
    if (!(a[static_cast<size_t>(c)] == b[static_cast<size_t>(c)])) {
      return false;
    }
  }
  return true;
}

bool Table::AnyValueNull(const Row& row, const std::vector<int>& cols) {
  for (int c : cols) {
    if (row[static_cast<size_t>(c)].is_null()) return true;
  }
  return false;
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

double Table::EstimateEqMatches(int column_idx, const Value& literal) const {
  const Index* idx = FindIndexForColumn(column_idx);
  if (idx == nullptr) return static_cast<double>(live_count_);
  return static_cast<double>(idx->map.count(HashOneValue(literal)));
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
    if (row == nullptr) continue;
    bool match = true;
    for (const ColumnPredicate& p : preds) {
      int c = schema_->ColumnIndex(p.column);
      if (c < 0 ||
          !EvalCompare((*row)[static_cast<size_t>(c)], p.op, p.literal)) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(id);
  }
  // A unique driver yields at most one candidate — already in order.
  if (!(driver != nullptr && driver->unique && out.size() <= 1)) {
    std::sort(out.begin(), out.end());
  }
  return out;
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

RowId Table::FindUniqueConflict(const Row& row, RowId self) const {
  for (const Index& idx : indexes_) {
    if (!idx.unique) continue;
    if (AnyValueNull(row, idx.column_idx)) continue;  // NULL never conflicts
    auto range = idx.map.equal_range(HashRowValues(row, idx.column_idx));
    for (auto it = range.first; it != range.second; ++it) {
      if (it->second == self) continue;
      const Row* other = GetRow(it->second);
      if (other != nullptr && RowValuesEqual(*other, row, idx.column_idx)) {
        return it->second;
      }
    }
  }
  return -1;
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
  c.batch_queries_executed =
      registry->GetCounter("engine_batch_queries_executed");
  c.batch_branches_merged =
      registry->GetCounter("engine_batch_branches_merged");
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

Result<Table*> Database::WritableTable(ExecutionContext* ctx,
                                       const std::string& name) {
  if (ctx == nullptr) ctx = root_context_.get();
  Table* temp = ctx->FindTempTable(name);
  if (temp != nullptr) return temp;  // session-local, never versioned
  auto it = table_index_.find(name);
  if (it == table_index_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, name));
  return WritableBaseTable(it->second);
}

Result<std::unique_ptr<Database>> Database::Create(DatabaseSchema schema) {
  UFILTER_RETURN_NOT_OK(schema.Validate());
  return std::unique_ptr<Database>(new Database(std::move(schema)));
}

Table* Database::TableByName(const ExecutionContext* ctx,
                             const std::string& name) {
  auto it = table_index_.find(name);
  if (it != table_index_.end()) {
    if (ctx != nullptr && ctx->read_snapshot() != nullptr) {
      // Snapshot-pinned context: every base-table read resolves to the
      // pinned epoch's immutable version. Mutation paths never come through
      // here (WritableTable refuses pinned contexts), so handing back a
      // non-const pointer to callers that only read is safe.
      return const_cast<Table*>(ctx->read_snapshot()->TableAt(it->second));
    }
    return tables_[it->second].get();
  }
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

Status Database::CheckForeignKeysExist(const TableSchema& schema,
                                       const Row& row) const {
  for (const ForeignKey& fk : schema.foreign_keys()) {
    std::vector<ColumnPredicate> preds;
    bool any_null = false;
    for (size_t i = 0; i < fk.columns.size(); ++i) {
      int c = schema.ColumnIndex(fk.columns[i]);
      const Value& v = row[static_cast<size_t>(c)];
      if (v.is_null()) {
        any_null = true;
        break;
      }
      preds.push_back({fk.ref_columns[i], CompareOp::kEq, v});
    }
    if (any_null) continue;  // NULL FKs reference nothing
    UFILTER_ASSIGN_OR_RETURN(const Table* ref, GetTable(fk.ref_table));
    if (ref->Find(preds, &counters_).empty()) {
      std::vector<std::string> vals;
      for (const auto& p : preds) vals.push_back(p.literal.ToSqlLiteral());
      return Status::ConstraintViolation(
          "FK violation: " + schema.name() + " -> " + fk.ref_table + " (" +
          Join(vals, ", ") + ") has no referenced row");
    }
  }
  return Status::OK();
}

Result<RowId> Database::Insert(ExecutionContext* ctx,
                               const std::string& table, Row row) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  // Constraint checks run against the live (read-resolved) table; the
  // copy-on-write resolution is deferred until the row is actually
  // appended, so a rejected insert never clones anything.
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  UFILTER_RETURN_NOT_OK(CheckRowConstraints(probe->schema(), row));
  if (!ctx->IsTempTable(table)) {
    UFILTER_RETURN_NOT_OK(CheckForeignKeysExist(probe->schema(), row));
  }
  RowId conflict = probe->FindUniqueConflict(row, -1);
  if (conflict >= 0) {
    return Status::ConstraintViolation("unique key violation on table '" +
                                       table + "'");
  }
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  RowId id = t->AppendRow(std::move(row));
  ctx->undo_log_.push_back(
      {ExecutionContext::UndoKind::kInsert, table, id, {}});
  counters_.rows_inserted->Inc();
  counters_.undo_records->Inc();
  if (!ctx->IsTempTable(table)) {
    CaptureRedo(ctx, RedoOp::Kind::kInsert, table, id, t->GetRow(id));
  }
  return id;
}

Result<RowId> Database::InsertValues(
    ExecutionContext* ctx, const std::string& table,
    const std::map<std::string, Value>& values) {
  UFILTER_ASSIGN_OR_RETURN(Table * t, GetTable(ctx, table));
  Row row(t->schema().columns().size());
  for (const auto& [name, value] : values) {
    int c = t->schema().ColumnIndex(name);
    if (c < 0) {
      return Status::NotFound("no column '" + name + "' in '" + table + "'");
    }
    row[static_cast<size_t>(c)] = value;
  }
  return Insert(ctx, table, std::move(row));
}

Status Database::DeleteRowInternal(
    ExecutionContext* ctx, Table* table, RowId id, DeleteOutcome* outcome,
    std::unordered_map<std::string, Table*>* writable) {
  // Per-transaction memo of copy-on-write resolutions: the writable pointer
  // is stable once resolved, and re-taking the global snapshot mutex per
  // cascaded row would contend with concurrent snapshot opens.
  auto writable_ref = [&](const std::string& name) -> Result<Table*> {
    auto cached = writable->find(name);
    if (cached != writable->end()) return cached->second;
    UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, name));
    writable->emplace(name, t);
    return t;
  };
  const Row* row_ptr = table->GetRow(id);
  if (row_ptr == nullptr) return Status::OK();
  Row row = *row_ptr;  // copy before erasing
  const std::string& table_name = table->schema().name();

  // Handle referencing tables first (policy-driven).
  for (const TableSchema& other : schema_.tables()) {
    for (const ForeignKey& fk : other.foreign_keys()) {
      if (fk.ref_table != table_name) continue;
      std::vector<ColumnPredicate> preds;
      bool any_null = false;
      for (size_t i = 0; i < fk.columns.size(); ++i) {
        int rc = table->schema().ColumnIndex(fk.ref_columns[i]);
        const Value& v = row[static_cast<size_t>(rc)];
        if (v.is_null()) any_null = true;
        preds.push_back({fk.columns[i], CompareOp::kEq, v});
      }
      if (any_null) continue;
      // Find runs against the live version; the clone (if any) happens only
      // when a policy branch below actually mutates the referencing table —
      // the kRestrict rejection must not copy-on-write anything.
      UFILTER_ASSIGN_OR_RETURN(Table * probe_table,
                               GetTable(ctx, other.name()));
      std::vector<RowId> referencing = probe_table->Find(preds, &counters_);
      if (referencing.empty()) continue;
      switch (fk.on_delete) {
        case DeletePolicy::kRestrict:
          return Status::ConstraintViolation(
              "delete from '" + table_name + "' restricted: referenced by '" +
              other.name() + "'");
        case DeletePolicy::kCascade: {
          UFILTER_ASSIGN_OR_RETURN(Table * ref_table,
                                   writable_ref(other.name()));
          for (RowId rid : referencing) {
            UFILTER_RETURN_NOT_OK(
                DeleteRowInternal(ctx, ref_table, rid, outcome, writable));
          }
          break;
        }
        case DeletePolicy::kSetNull: {
          UFILTER_ASSIGN_OR_RETURN(Table * ref_table,
                                   writable_ref(other.name()));
          for (RowId rid : referencing) {
            const Row* old = ref_table->GetRow(rid);
            if (old == nullptr) continue;
            Row updated = *old;
            bool possible = true;
            for (const std::string& c : fk.columns) {
              int ci = other.ColumnIndex(c);
              if (other.columns()[static_cast<size_t>(ci)].not_null) {
                possible = false;
              }
              updated[static_cast<size_t>(ci)] = Value::Null();
            }
            if (!possible) {
              // SET NULL impossible on NOT NULL FK; fall back to cascade to
              // preserve integrity.
              UFILTER_RETURN_NOT_OK(
                  DeleteRowInternal(ctx, ref_table, rid, outcome, writable));
              continue;
            }
            ctx->undo_log_.push_back(
                {ExecutionContext::UndoKind::kUpdate, other.name(), rid,
                 *old});
            counters_.undo_records->Inc();
            ref_table->OverwriteRow(rid, std::move(updated));
            counters_.rows_updated->Inc();
            outcome->nulled_rows++;
            // Referencing tables are always base tables (schema-declared
            // FKs), so every SET NULL rewrite is redo-logged.
            CaptureRedo(ctx, RedoOp::Kind::kUpdate, other.name(), rid,
                        ref_table->GetRow(rid));
          }
          break;
        }
      }
    }
  }

  // The row may have been cascade-deleted through a cycle; re-check.
  if (table->GetRow(id) == nullptr) return Status::OK();
  ctx->undo_log_.push_back(
      {ExecutionContext::UndoKind::kDelete, table_name, id, row});
  counters_.undo_records->Inc();
  if (!ctx->IsTempTable(table_name)) {
    CaptureRedo(ctx, RedoOp::Kind::kDelete, table_name, id, nullptr);
  }
  table->EraseRow(id);
  counters_.rows_deleted->Inc();
  outcome->deleted_rows++;
  outcome->affected.push_back({table_name, id});
  return Status::OK();
}

Result<DeleteOutcome> Database::DeleteWhere(
    ExecutionContext* ctx, const std::string& table,
    const std::vector<ColumnPredicate>& preds) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  // Match against the live table first: a delete that hits nothing must
  // not copy-on-write anything (RowIds survive the clone below).
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  std::vector<RowId> matches = probe->Find(preds, &counters_);
  DeleteOutcome outcome;
  if (matches.empty()) return outcome;
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  std::unordered_map<std::string, Table*> writable{{table, t}};
  size_t mark = ctx->Begin();
  for (RowId id : matches) {
    Status st = DeleteRowInternal(ctx, t, id, &outcome, &writable);
    if (!st.ok()) {
      ctx->Rollback(mark);
      return st;
    }
  }
  ctx->Commit(mark);
  return outcome;
}

Result<DeleteOutcome> Database::DeleteRow(ExecutionContext* ctx,
                                          const std::string& table, RowId id) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  DeleteOutcome outcome;
  if (probe->GetRow(id) == nullptr) return outcome;  // nothing to delete
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  std::unordered_map<std::string, Table*> writable{{table, t}};
  size_t mark = ctx->Begin();
  Status st = DeleteRowInternal(ctx, t, id, &outcome, &writable);
  if (!st.ok()) {
    ctx->Rollback(mark);
    return st;
  }
  ctx->Commit(mark);
  return outcome;
}

Result<int64_t> Database::UpdateWhere(
    ExecutionContext* ctx, const std::string& table,
    const std::map<std::string, Value>& assignments,
    const std::vector<ColumnPredicate>& preds) {
  if (ctx == nullptr) ctx = root_context_.get();
  UFILTER_RETURN_NOT_OK(RefuseIfPinned(ctx, table));
  UFILTER_ASSIGN_OR_RETURN(const Table* probe, GetTable(ctx, table));
  const TableSchema& schema = probe->schema();
  for (const auto& [name, value] : assignments) {
    (void)value;
    if (!schema.HasColumn(name)) {
      return Status::NotFound("no column '" + name + "' in '" + table + "'");
    }
  }
  // Zero-match updates clone nothing (RowIds survive the clone below).
  std::vector<RowId> matches = probe->Find(preds, &counters_);
  if (matches.empty()) return 0;
  UFILTER_ASSIGN_OR_RETURN(Table * t, WritableTable(ctx, table));
  int64_t updated = 0;
  size_t mark = ctx->Begin();
  for (RowId id : matches) {
    const Row* old = t->GetRow(id);
    if (old == nullptr) continue;
    Row next = *old;
    for (const auto& [name, value] : assignments) {
      next[static_cast<size_t>(schema.ColumnIndex(name))] = value;
    }
    Status st = CheckRowConstraints(schema, next);
    if (st.ok() && !ctx->IsTempTable(table)) {
      st = CheckForeignKeysExist(schema, next);
    }
    if (st.ok()) {
      RowId conflict = t->FindUniqueConflict(next, id);
      if (conflict >= 0) {
        st = Status::ConstraintViolation("unique key violation on table '" +
                                         table + "'");
      }
    }
    if (!st.ok()) {
      ctx->Rollback(mark);
      return st;
    }
    ctx->undo_log_.push_back(
        {ExecutionContext::UndoKind::kUpdate, table, id, *old});
    counters_.undo_records->Inc();
    t->OverwriteRow(id, std::move(next));
    counters_.rows_updated->Inc();
    if (!ctx->IsTempTable(table)) {
      CaptureRedo(ctx, RedoOp::Kind::kUpdate, table, id, t->GetRow(id));
    }
    ++updated;
  }
  ctx->Commit(mark);
  return updated;
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
