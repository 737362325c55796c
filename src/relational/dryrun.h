// Check-only execution: a throwaway overlay of the tables a context
// resolves, and the op runner that drives Database's own insert/delete/
// update code through any TableStores. Writes land in the overlay; the
// tables underneath are only read, so the overlay is safe over a pinned
// MVCC snapshot with no lock held, and discarding it leaves the database
// and the context untouched.
//
// This is what lets check-only traffic run concurrently: every check-only
// statement (apply=false, any strategy, any number of actions) runs its
// probes, its translation and its translated ops on one overlay of its
// context's pinned snapshot. The constraint checks (NOT NULL / CHECK /
// domain, FK existence, unique keys) and the FK delete-policy walk are
// the engine's own, so the verdict is the one execution would give for
// any op sequence. tests/relational/dryrun_test.cc enumerates small
// sequences against execute-and-rollback.
#ifndef UFILTER_RELATIONAL_DRYRUN_H_
#define UFILTER_RELATIONAL_DRYRUN_H_

#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/database.h"
#include "relational/sqlgen.h"

namespace ufilter::relational {

/// A throwaway layer over one table version. Writes land in the layer; the
/// version underneath is only read. Inserted rows are numbered as the table
/// itself would number them, from SlotCount() up.
class OverlayTable final : public TableStore {
 public:
  /// `pinned`: `base` is a published version (the columnar cache may serve
  /// it while the layer is untouched).
  OverlayTable(const Table* base, size_t slot, bool pinned,
               const EngineCounters* counters);

  const TableSchema& schema() const override { return base_->schema(); }
  size_t slot() const override { return slot_; }
  const Table* pinned_version() const override {
    return pinned_ && !Touched() ? base_ : nullptr;
  }
  const Row* GetRow(RowId id) const override;
  std::vector<RowId> AllRowIds() const override;
  void ProbeIndexEq(int column_idx, const Value& v,
                    std::vector<RowId>* out) const override;
  std::vector<RowId> Find(
      const std::vector<ColumnPredicate>& preds) const override;
  void FindKey(const std::vector<int>& columns, const Value* key_row,
               const std::vector<int>& key_columns,
               std::vector<RowId>* out) const override;
  RowId FindUniqueConflict(const Row& row, RowId self) const override;
  RowId Append(Row row) override;
  void Erase(RowId id) override;
  void Overwrite(RowId id, Row row) override;

 private:
  bool Touched() const { return !rows_.empty() || !hidden_.empty(); }
  bool Hidden(RowId id) const {
    return static_cast<size_t>(id) < hidden_.size() &&
           hidden_[static_cast<size_t>(id)];
  }
  /// Drops the base ids the layer hid from `out[first..]`, appends the
  /// layer's rows that `matches`, and sorts `out[first..]`.
  template <typename Matches>
  void Merge(std::vector<RowId>* out, size_t first, Matches matches) const;
  /// Marks base row `id`'s stored image as no longer current. Rows this
  /// layer inserted lie past the base version and have no bit.
  void Hide(RowId id);

  const Table* base_;
  size_t slot_;
  bool pinned_;
  const EngineCounters* counters_;
  RowId next_id_;
  /// Current image of every live row written here (inserted or rewritten).
  std::unordered_map<RowId, Row> rows_;
  /// One bit per base slot, set when the base image is no longer current
  /// (erased or rewritten); sized on the layer's first erase or rewrite.
  std::vector<bool> hidden_;
};

/// \brief One check-only statement's stores: an OverlayTable per table it
/// touches, over the version `ctx` resolves (null ctx: the live base
/// tables), made on first use. Base tables resolve by slot, temp tables
/// (rare) by name. Reads see the statement's own earlier writes, so a later
/// action's probes see what the earlier actions wrote.
class OverlayStores final : public TableStores {
 public:
  OverlayStores(const Database& db, const ExecutionContext* ctx)
      : db_(db), ctx_(ctx) {}
  OverlayStores(const OverlayStores&) = delete;
  OverlayStores& operator=(const OverlayStores&) = delete;

  TableStore* Base(size_t slot) override;
  TableStore* Temp(const std::string& name) override;

 private:
  const Database& db_;
  const ExecutionContext* ctx_;
  /// Aligned with the schema's tables once the first one is touched.
  std::vector<std::optional<OverlayTable>> base_;
  std::list<OverlayTable> temp_;  // stable addresses, nothing until used
};

/// Outcome of running an op sequence.
struct DryRunOutcome {
  /// OK means every op succeeded; otherwise the status of the first
  /// failing op (the ops after it do not run).
  Status failure = Status::OK();
  /// Rows the ops before any failure affected: one per insert, each
  /// deleted row (cascades included, SET NULL rewrites not), each updated
  /// row.
  int64_t rows_affected = 0;
};

/// Runs `ops` in order through `db`'s mutation code on `stores`, stopping
/// at the first failure. The writes land in `stores`; a failed run's
/// earlier writes stay there for the caller to roll back or discard.
DryRunOutcome RunOps(const Database& db, TableStores& stores,
                     const std::vector<UpdateOp>& ops);

/// Validates `ops` read-only against the tables `ctx` resolves (null ctx:
/// the live base tables): RunOps on a fresh OverlayStores. Never mutates
/// either.
DryRunOutcome DryRunOps(const Database& db, const ExecutionContext* ctx,
                        const std::vector<UpdateOp>& ops);

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_DRYRUN_H_
