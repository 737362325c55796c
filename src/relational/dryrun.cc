#include "relational/dryrun.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>

namespace ufilter::relational {

namespace {

/// A throwaway layer over one table version. Writes land in the layer; the
/// version underneath is only read. Inserted rows are numbered as the table
/// itself would number them, from SlotCount() up.
class OverlayTable final : public TableStore {
 public:
  OverlayTable(const Table* base, size_t slot, const EngineCounters* counters)
      : base_(base),
        slot_(slot),
        counters_(counters),
        next_id_(static_cast<RowId>(base->SlotCount())) {}

  const TableSchema& schema() const override { return base_->schema(); }
  size_t slot() const override { return slot_; }

  const Row* GetRow(RowId id) const override {
    if (!rows_.empty()) {
      auto it = rows_.find(id);
      if (it != rows_.end()) return &it->second;
    }
    return Hidden(id) ? nullptr : base_->GetRow(id);
  }

  std::vector<RowId> Find(
      const std::vector<ColumnPredicate>& preds) const override {
    std::vector<RowId> out = base_->Find(preds, counters_);
    if (hidden_.empty() && rows_.empty()) return out;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [this](RowId id) { return Hidden(id); }),
              out.end());
    for (const auto& [id, row] : rows_) {
      if (base_->RowMatches(row, preds)) out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void FindKey(const std::vector<int>& columns, const Value* key_row,
               const std::vector<int>& key_columns,
               std::vector<RowId>* out) const override {
    const auto first = static_cast<std::ptrdiff_t>(out->size());
    base_->FindKey(columns, key_row, key_columns, out, counters_);
    if (hidden_.empty() && rows_.empty()) return;
    out->erase(std::remove_if(out->begin() + first, out->end(),
                              [this](RowId id) { return Hidden(id); }),
               out->end());
    if (rows_.empty()) return;
    for (const auto& [id, row] : rows_) {
      if (Table::KeyMatches(row, columns, key_row, key_columns)) {
        out->push_back(id);
      }
    }
    std::sort(out->begin() + first, out->end());
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
    if (!rows_.empty()) rows_.erase(id);
    Hide(id);
  }
  void Overwrite(RowId id, Row row) override {
    rows_[id] = std::move(row);
    Hide(id);
  }

 private:
  bool Hidden(RowId id) const {
    return static_cast<size_t>(id) < hidden_.size() &&
           hidden_[static_cast<size_t>(id)];
  }
  /// Marks base row `id`'s stored image as no longer current. Rows this
  /// layer inserted lie past the base version and have no bit.
  void Hide(RowId id) {
    if (static_cast<size_t>(id) >= base_->SlotCount()) return;
    if (hidden_.empty()) hidden_.resize(base_->SlotCount());
    hidden_[static_cast<size_t>(id)] = true;
  }

  const Table* base_;
  size_t slot_;
  const EngineCounters* counters_;
  RowId next_id_;
  /// Current image of every live row written here (inserted or rewritten).
  std::unordered_map<RowId, Row> rows_;
  /// One bit per base slot, set when the base image is no longer current
  /// (erased or rewritten); sized on the layer's first erase or rewrite.
  std::vector<bool> hidden_;
};

/// One overlay per table the ops touch, over the version `ctx` resolves:
/// base tables by slot, temp tables (rare) by name.
class OverlayStores final : public TableStores {
 public:
  OverlayStores(const Database& db, const ExecutionContext* ctx)
      : db_(db), ctx_(ctx), base_(db.schema().tables().size()) {}

  TableStore* Base(size_t slot) override {
    std::optional<OverlayTable>& t = base_[slot];
    if (!t.has_value()) {
      // Base names always resolve.
      const Table* table =
          *db_.GetTable(ctx_, db_.schema().tables()[slot].name());
      t.emplace(table, slot, &db_.counters());
    }
    return &*t;
  }

  TableStore* Temp(const std::string& name) override {
    for (OverlayTable& t : temp_) {
      if (t.schema().name() == name) return &t;
    }
    if (ctx_ == nullptr || !ctx_->IsTempTable(name)) return nullptr;
    return &temp_.emplace_back(*db_.GetTable(ctx_, name), kTempTableSlot,
                               &db_.counters());
  }

 private:
  const Database& db_;
  const ExecutionContext* ctx_;
  std::vector<std::optional<OverlayTable>> base_;
  std::deque<OverlayTable> temp_;  // stable addresses
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
