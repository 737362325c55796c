#include "relational/dryrun.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace ufilter::relational {

namespace {

/// A throwaway layer over one table version. Writes land in the layer; the
/// version underneath is only read. Inserted rows are numbered as the table
/// itself would number them, from SlotCount() up.
class OverlayTable final : public TableStore {
 public:
  OverlayTable(const Table* base, bool temp, const EngineCounters* counters)
      : base_(base),
        temp_(temp),
        counters_(counters),
        next_id_(static_cast<RowId>(base->SlotCount())) {}

  const TableSchema& schema() const override { return base_->schema(); }
  bool temp() const override { return temp_; }

  const Row* GetRow(RowId id) const override {
    auto it = rows_.find(id);
    if (it != rows_.end()) return &it->second;
    return stale_.count(id) > 0 ? nullptr : base_->GetRow(id);
  }

  std::vector<RowId> Find(
      const std::vector<ColumnPredicate>& preds) const override {
    std::vector<RowId> out = base_->Find(preds, counters_);
    if (stale_.empty() && rows_.empty()) return out;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](RowId id) { return stale_.count(id) > 0; }),
              out.end());
    for (const auto& [id, row] : rows_) {
      if (base_->RowMatches(row, preds)) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  RowId FindUniqueConflict(const Row& row, RowId self) const override {
    RowId hit = base_->FindUniqueConflict(
        row, self, [this](RowId id) { return GetRow(id); });
    if (hit >= 0) return hit;
    // Rows written here sit in no index bucket of the base version.
    for (const auto& [id, other] : rows_) {
      if (id != self && base_->SharesUniqueKey(row, other)) return id;
    }
    return -1;
  }

  RowId Append(Row row) override {
    rows_.emplace(next_id_, std::move(row));
    return next_id_++;
  }
  void Erase(RowId id) override {
    rows_.erase(id);
    stale_.insert(id);
  }
  void Overwrite(RowId id, Row row) override {
    rows_[id] = std::move(row);
    stale_.insert(id);
  }

 private:
  const Table* base_;
  bool temp_;
  const EngineCounters* counters_;
  RowId next_id_;
  /// Current image of every live row written here (inserted or rewritten).
  std::unordered_map<RowId, Row> rows_;
  /// Base rows whose stored image is no longer current (erased or
  /// rewritten).
  std::unordered_set<RowId> stale_;
};

/// One overlay per table the ops touch, over the version `ctx` resolves.
class OverlayStores final : public TableStores {
 public:
  OverlayStores(const Database& db, const ExecutionContext* ctx)
      : db_(db), ctx_(ctx) {}

  Result<TableStore*> Get(const std::string& name) override {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      UFILTER_ASSIGN_OR_RETURN(const Table* base, db_.GetTable(ctx_, name));
      bool temp = ctx_ != nullptr && ctx_->IsTempTable(name);
      it = tables_.try_emplace(name, base, temp, &db_.counters()).first;
    }
    return &it->second;
  }

 private:
  const Database& db_;
  const ExecutionContext* ctx_;
  std::unordered_map<std::string, OverlayTable> tables_;
};

}  // namespace

DryRunOutcome DryRunOps(const Database& db, const ExecutionContext* ctx,
                        const std::vector<UpdateOp>& ops) {
  OverlayStores stores(db, ctx);
  DryRunOutcome out;
  for (const UpdateOp& op : ops) {
    switch (op.kind) {
      case UpdateOpKind::kInsert: {
        auto result = db.InsertValues(stores, op.table, op.values);
        out.failure = result.status();
        if (result.ok()) out.rows_affected += 1;
        break;
      }
      case UpdateOpKind::kDelete: {
        auto result = db.DeleteWhere(stores, op.table, op.where);
        out.failure = result.status();
        if (result.ok()) out.rows_affected += result->deleted_rows;
        break;
      }
      case UpdateOpKind::kUpdate: {
        auto result = db.UpdateWhere(stores, op.table, op.values, op.where);
        out.failure = result.status();
        if (result.ok()) out.rows_affected += *result;
        break;
      }
    }
    if (!out.failure.ok()) break;  // execution stops at the first failure
  }
  return out;
}

}  // namespace ufilter::relational
