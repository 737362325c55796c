#include "relational/dryrun.h"

#include <algorithm>

namespace ufilter::relational {

// -------------------------------------------------------------- OverlayTable

OverlayTable::OverlayTable(const Table* base, size_t slot, bool pinned,
                           const EngineCounters* counters)
    : base_(base),
      slot_(slot),
      pinned_(pinned),
      counters_(counters),
      next_id_(static_cast<RowId>(base->SlotCount())) {}

const Row* OverlayTable::GetRow(RowId id) const {
  if (!rows_.empty()) {
    auto it = rows_.find(id);
    if (it != rows_.end()) return &it->second;
  }
  return Hidden(id) ? nullptr : base_->GetRow(id);
}

template <typename Matches>
void OverlayTable::Merge(std::vector<RowId>* out, size_t first,
                         Matches matches) const {
  if (!Touched()) return;
  const auto from = static_cast<std::ptrdiff_t>(first);
  out->erase(std::remove_if(out->begin() + from, out->end(),
                            [this](RowId id) { return Hidden(id); }),
             out->end());
  if (rows_.empty()) return;  // erasing kept the base order
  for (const auto& [id, row] : rows_) {
    if (matches(row)) out->push_back(id);
  }
  std::sort(out->begin() + from, out->end());
}

std::vector<RowId> OverlayTable::AllRowIds() const {
  std::vector<RowId> out = base_->AllRowIds();
  Merge(&out, 0, [](const Row&) { return true; });
  return out;
}

void OverlayTable::ProbeIndexEq(int column_idx, const Value& v,
                                std::vector<RowId>* out) const {
  const size_t first = out->size();
  base_->ProbeIndexEq(column_idx, v, out, counters_);
  // Like the table, a probe of a column no index covers finds nothing.
  if (!Touched() || !base_->HasIndexOnColumn(column_idx)) return;
  Merge(out, first, [&](const Row& row) {
    return row[static_cast<size_t>(column_idx)] == v;
  });
}

std::vector<RowId> OverlayTable::Find(
    const std::vector<ColumnPredicate>& preds) const {
  std::vector<RowId> out = base_->Find(preds, counters_);
  Merge(&out, 0, [&](const Row& row) { return base_->RowMatches(row, preds); });
  return out;
}

void OverlayTable::FindKey(const std::vector<int>& columns,
                           const Value* key_row,
                           const std::vector<int>& key_columns,
                           std::vector<RowId>* out) const {
  const size_t first = out->size();
  base_->FindKey(columns, key_row, key_columns, out, counters_);
  Merge(out, first, [&](const Row& row) {
    return Table::KeyMatches(row, columns, key_row, key_columns);
  });
}

RowId OverlayTable::FindUniqueConflict(const Row& row, RowId self) const {
  RowId hit = base_->FindUniqueConflict(
      row, self, [this](RowId id) { return GetRow(id); });
  if (hit >= 0) return hit;
  // Rows written here sit in no index bucket of the base version.
  for (const auto& [id, other] : rows_) {
    if (id != self && base_->SharesUniqueKey(row, other)) return id;
  }
  return -1;
}

RowId OverlayTable::Append(Row row) {
  rows_.emplace(next_id_, std::move(row));
  return next_id_++;
}

void OverlayTable::Erase(RowId id) {
  if (!rows_.empty()) rows_.erase(id);
  Hide(id);
}

void OverlayTable::Overwrite(RowId id, Row row) {
  rows_[id] = std::move(row);
  Hide(id);
}

void OverlayTable::Hide(RowId id) {
  if (static_cast<size_t>(id) >= base_->SlotCount()) return;
  if (hidden_.empty()) hidden_.resize(base_->SlotCount());
  hidden_[static_cast<size_t>(id)] = true;
}

// ------------------------------------------------------------- OverlayStores

TableStore* OverlayStores::Base(size_t slot) {
  if (base_.empty()) base_.resize(db_.schema().tables().size());
  std::optional<OverlayTable>& t = base_[slot];
  if (!t.has_value()) {
    // Base names always resolve.
    const Table* table =
        *db_.GetTable(ctx_, db_.schema().tables()[slot].name());
    t.emplace(table, slot,
              ctx_ != nullptr && ctx_->read_snapshot() != nullptr,
              &db_.counters());
  }
  return &*t;
}

TableStore* OverlayStores::Temp(const std::string& name) {
  for (OverlayTable& t : temp_) {
    if (t.schema().name() == name) return &t;
  }
  if (ctx_ == nullptr || !ctx_->IsTempTable(name)) return nullptr;
  return &temp_.emplace_back(*db_.GetTable(ctx_, name), kTempTableSlot,
                             /*pinned=*/false, &db_.counters());
}

// -------------------------------------------------------------------- RunOps

DryRunOutcome RunOps(const Database& db, TableStores& stores,
                     const std::vector<UpdateOp>& ops) {
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

DryRunOutcome DryRunOps(const Database& db, const ExecutionContext* ctx,
                        const std::vector<UpdateOp>& ops) {
  OverlayStores stores(db, ctx);
  return RunOps(db, stores, ops);
}

}  // namespace ufilter::relational
