#include "relational/dryrun.h"

#include <unordered_map>
#include <unordered_set>

#include "common/strings.h"

namespace ufilter::relational {

namespace {

bool RowMatches(const Row& row, const TableSchema& schema,
                const std::vector<ColumnPredicate>& preds) {
  for (const ColumnPredicate& p : preds) {
    int c = schema.ColumnIndex(p.column);
    if (c < 0 ||
        !EvalCompare(row[static_cast<size_t>(c)], p.op, p.literal)) {
      return false;
    }
  }
  return true;
}

}  // namespace

/// \brief The simulation state: per-table overlay of deleted row ids,
/// updated row images and inserted rows, layered over the live tables.
///
/// Friend of Database/Table/ExecutionContext so it can mirror the private
/// constraint machinery (unique-index scans, FK policy walks) read-only.
class OpDryRunner {
 public:
  OpDryRunner(const Database& db, const ExecutionContext* ctx)
      : db_(db), ctx_(ctx) {}

  DryRunOutcome Run(const std::vector<UpdateOp>& ops) {
    DryRunOutcome out;
    for (const UpdateOp& op : ops) {
      Status st;
      switch (op.kind) {
        case UpdateOpKind::kInsert:
          st = SimulateInsert(op, &out);
          break;
        case UpdateOpKind::kDelete:
          st = SimulateDelete(op, &out);
          break;
        case UpdateOpKind::kUpdate:
          st = SimulateUpdate(op, &out);
          break;
      }
      if (undecided_) {
        out.decided = false;
        return out;
      }
      if (!st.ok()) {
        // Real execution stops at the first failing op.
        out.decided = true;
        out.failure = st;
        return out;
      }
    }
    out.decided = true;
    return out;
  }

 private:
  struct TableOverlay {
    std::unordered_set<RowId> deleted;
    std::unordered_map<RowId, Row> updated;  ///< current simulated image
    std::vector<Row> inserted;
  };

  TableOverlay& OverlayFor(const std::string& table) {
    return overlays_[table];
  }
  const TableOverlay* FindOverlay(const std::string& table) const {
    auto it = overlays_.find(table);
    return it == overlays_.end() ? nullptr : &it->second;
  }

  Result<const Table*> ResolveTable(const std::string& name) const {
    return db_.GetTable(ctx_, name);
  }

  bool IsDeleted(const std::string& table, RowId id) const {
    const TableOverlay* ov = FindOverlay(table);
    return ov != nullptr && ov->deleted.count(id) > 0;
  }

  /// The row's current simulated image: the overlay's updated image when one
  /// exists, else the stored row. Null when stored-dead or overlay-deleted.
  const Row* EffectiveRow(const Table& t, const std::string& table,
                          RowId id) const {
    if (IsDeleted(table, id)) return nullptr;
    const TableOverlay* ov = FindOverlay(table);
    if (ov != nullptr) {
      auto it = ov->updated.find(id);
      if (it != ov->updated.end()) return &it->second;
    }
    return t.GetRow(id);
  }

  /// Find over the effective state: base index/scan candidates, minus
  /// overlay-deleted rows, predicates re-verified against updated images.
  /// Two overlay shapes break the equivalence and mark the run undecided:
  /// rows *inserted* earlier in the sequence (they carry no RowId to
  /// enumerate), and rows rewritten by an earlier *update op* (their new
  /// image may match predicates the base indexes cannot surface). SET-NULL
  /// images from the delete walk are safe — nulling columns only removes
  /// equality matches, never adds them.
  std::vector<RowId> EffectiveFind(
      const Table& t, const std::string& table,
      const std::vector<ColumnPredicate>& preds) {
    const TableOverlay* ov = FindOverlay(table);
    if ((ov != nullptr && !ov->inserted.empty()) ||
        updated_by_op_.count(table) > 0) {
      undecided_ = true;
      return {};
    }
    std::vector<RowId> out;
    for (RowId id : t.Find(preds, &db_.counters_)) {
      const Row* row = EffectiveRow(t, table, id);
      if (row != nullptr && RowMatches(*row, t.schema(), preds)) {
        out.push_back(id);
      }
    }
    return out;
  }

  /// Mirrors Table::FindUniqueConflict plus the overlay: conflicts against
  /// live base rows (skipping deleted / re-reading updated images) and
  /// against rows inserted or updated earlier in the sequence.
  bool HasUniqueConflict(const Table& t, const std::string& table,
                         const Row& row, RowId self) const {
    const TableOverlay* ov = FindOverlay(table);
    for (const Table::Index& idx : t.indexes_) {
      if (!idx.unique) continue;
      if (Table::AnyValueNull(row, idx.column_idx)) continue;  // NULL never conflicts
      auto range =
          idx.map.equal_range(Table::HashRowValues(row, idx.column_idx));
      for (auto it = range.first; it != range.second; ++it) {
        if (it->second == self) continue;
        const Row* other = EffectiveRow(t, table, it->second);
        if (other != nullptr &&
            Table::RowValuesEqual(*other, row, idx.column_idx)) {
          return true;
        }
      }
      if (ov == nullptr) continue;
      // Rows whose simulated image left the base index buckets (skipping
      // any that a later op in the sequence deleted).
      for (const auto& [id, image] : ov->updated) {
        if (id == self || ov->deleted.count(id) > 0) continue;
        if (Table::RowValuesEqual(image, row, idx.column_idx)) return true;
      }
      for (const Row& inserted : ov->inserted) {
        if (!Table::AnyValueNull(inserted, idx.column_idx) &&
            Table::RowValuesEqual(inserted, row, idx.column_idx)) {
          return true;
        }
      }
    }
    return false;
  }

  /// Mirrors Database::CheckForeignKeysExist over the effective state.
  Status CheckForeignKeysExist(const TableSchema& schema, const Row& row) {
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
      auto ref = ResolveTable(fk.ref_table);
      if (!ref.ok()) return ref.status();
      bool exists = false;
      for (RowId id : (*ref)->Find(preds, &db_.counters_)) {
        const Row* r = EffectiveRow(**ref, fk.ref_table, id);
        if (r != nullptr && RowMatches(*r, (*ref)->schema(), preds)) {
          exists = true;
          break;
        }
      }
      if (!exists) {
        const TableOverlay* ov = FindOverlay(fk.ref_table);
        if (ov != nullptr) {
          for (const Row& ins : ov->inserted) {
            if (RowMatches(ins, (*ref)->schema(), preds)) {
              exists = true;
              break;
            }
          }
          // Images rewritten earlier in the sequence may satisfy the FK
          // even though their stored (indexed) values do not.
          for (const auto& [id, image] : ov->updated) {
            if (exists) break;
            if (!IsDeleted(fk.ref_table, id) &&
                RowMatches(image, (*ref)->schema(), preds)) {
              exists = true;
            }
          }
        }
      }
      if (!exists) {
        std::vector<std::string> vals;
        for (const auto& p : preds) vals.push_back(p.literal.ToSqlLiteral());
        return Status::ConstraintViolation(
            "FK violation: " + schema.name() + " -> " + fk.ref_table + " (" +
            Join(vals, ", ") + ") has no referenced row");
      }
    }
    return Status::OK();
  }

  Status SimulateInsert(const UpdateOp& op, DryRunOutcome* out) {
    auto table = ResolveTable(op.table);
    if (!table.ok()) return table.status();
    const Table& t = **table;
    Row row(t.schema().columns().size());
    for (const auto& [name, value] : op.values) {
      int c = t.schema().ColumnIndex(name);
      if (c < 0) {
        return Status::NotFound("no column '" + name + "' in '" + op.table +
                                "'");
      }
      row[static_cast<size_t>(c)] = value;
    }
    UFILTER_RETURN_NOT_OK(db_.CheckRowConstraints(t.schema(), row));
    bool is_temp = ctx_ != nullptr && ctx_->IsTempTable(op.table);
    if (!is_temp) {
      UFILTER_RETURN_NOT_OK(CheckForeignKeysExist(t.schema(), row));
    }
    if (HasUniqueConflict(t, op.table, row, -1)) {
      return Status::ConstraintViolation("unique key violation on table '" +
                                         op.table + "'");
    }
    OverlayFor(op.table).inserted.push_back(std::move(row));
    out->rows_affected += 1;
    return Status::OK();
  }

  /// Mirrors Database::DeleteRowInternal: the recursive FK-policy walk,
  /// marking rows deleted / SET-NULLed in the overlay instead of mutating.
  Status SimulateDeleteRow(const Table& t, const std::string& table_name,
                           RowId id, int64_t* deleted_rows) {
    const Row* row_ptr = EffectiveRow(t, table_name, id);
    if (row_ptr == nullptr) return Status::OK();
    Row row = *row_ptr;  // copy: the overlay may reallocate during the walk

    for (const TableSchema& other : db_.schema_.tables()) {
      for (const ForeignKey& fk : other.foreign_keys()) {
        if (fk.ref_table != table_name) continue;
        std::vector<ColumnPredicate> preds;
        bool any_null = false;
        for (size_t i = 0; i < fk.columns.size(); ++i) {
          int rc = t.schema().ColumnIndex(fk.ref_columns[i]);
          const Value& v = row[static_cast<size_t>(rc)];
          if (v.is_null()) any_null = true;
          preds.push_back({fk.columns[i], CompareOp::kEq, v});
        }
        if (any_null) continue;
        auto ref = ResolveTable(other.name());
        if (!ref.ok()) return ref.status();
        std::vector<RowId> referencing =
            EffectiveFind(**ref, other.name(), preds);
        if (undecided_) return Status::OK();
        if (referencing.empty()) continue;
        switch (fk.on_delete) {
          case DeletePolicy::kRestrict:
            return Status::ConstraintViolation(
                "delete from '" + table_name +
                "' restricted: referenced by '" + other.name() + "'");
          case DeletePolicy::kCascade:
            for (RowId rid : referencing) {
              UFILTER_RETURN_NOT_OK(
                  SimulateDeleteRow(**ref, other.name(), rid, deleted_rows));
              if (undecided_) return Status::OK();
            }
            break;
          case DeletePolicy::kSetNull: {
            for (RowId rid : referencing) {
              const Row* old = EffectiveRow(**ref, other.name(), rid);
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
                // SET NULL impossible on NOT NULL FK; the engine falls back
                // to cascade to preserve integrity.
                UFILTER_RETURN_NOT_OK(SimulateDeleteRow(
                    **ref, other.name(), rid, deleted_rows));
                if (undecided_) return Status::OK();
                continue;
              }
              OverlayFor(other.name()).updated[rid] = std::move(updated);
            }
            break;
          }
        }
      }
    }

    // The row may have been cascade-deleted through a cycle; re-check.
    if (EffectiveRow(t, table_name, id) == nullptr) return Status::OK();
    OverlayFor(table_name).deleted.insert(id);
    ++*deleted_rows;
    return Status::OK();
  }

  Status SimulateDelete(const UpdateOp& op, DryRunOutcome* out) {
    auto table = ResolveTable(op.table);
    if (!table.ok()) return table.status();
    int64_t deleted_rows = 0;
    for (RowId id : EffectiveFind(**table, op.table, op.where)) {
      if (undecided_) return Status::OK();
      UFILTER_RETURN_NOT_OK(
          SimulateDeleteRow(**table, op.table, id, &deleted_rows));
      if (undecided_) return Status::OK();
    }
    out->rows_affected += deleted_rows;
    return Status::OK();
  }

  Status SimulateUpdate(const UpdateOp& op, DryRunOutcome* out) {
    auto table = ResolveTable(op.table);
    if (!table.ok()) return table.status();
    const Table& t = **table;
    const TableSchema& schema = t.schema();
    for (const auto& [name, value] : op.values) {
      (void)value;
      if (!schema.HasColumn(name)) {
        return Status::NotFound("no column '" + name + "' in '" + op.table +
                                "'");
      }
    }
    bool is_temp = ctx_ != nullptr && ctx_->IsTempTable(op.table);
    for (RowId id : EffectiveFind(t, op.table, op.where)) {
      if (undecided_) return Status::OK();
      const Row* old = EffectiveRow(t, op.table, id);
      if (old == nullptr) continue;
      Row next = *old;
      for (const auto& [name, value] : op.values) {
        next[static_cast<size_t>(schema.ColumnIndex(name))] = value;
      }
      UFILTER_RETURN_NOT_OK(db_.CheckRowConstraints(schema, next));
      if (!is_temp) {
        UFILTER_RETURN_NOT_OK(CheckForeignKeysExist(schema, next));
      }
      if (HasUniqueConflict(t, op.table, next, id)) {
        return Status::ConstraintViolation("unique key violation on table '" +
                                           op.table + "'");
      }
      OverlayFor(op.table).updated[id] = std::move(next);
      updated_by_op_.insert(op.table);
      out->rows_affected += 1;
    }
    return Status::OK();
  }

  const Database& db_;
  const ExecutionContext* ctx_;
  std::unordered_map<std::string, TableOverlay> overlays_;
  /// Tables whose rows were rewritten by an update *op* (EffectiveFind on
  /// them is no longer equivalence-preserving, unlike SET-NULL images).
  std::unordered_set<std::string> updated_by_op_;
  bool undecided_ = false;
};

DryRunOutcome DryRunOps(const Database& db, const ExecutionContext* ctx,
                        const std::vector<UpdateOp>& ops) {
  return OpDryRunner(db, ctx).Run(ops);
}

}  // namespace ufilter::relational
