#include "relational/query.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>

#include "common/strings.h"
#include "relational/columnar.h"
#include "relational/planner.h"

namespace ufilter::relational {

SqlTemplate SelectQuery::ToSqlTemplate() const {
  SqlTemplate out;
  std::vector<std::string> sel;
  for (const ColRef& c : selects) sel.push_back(c.ToString());
  std::vector<std::string> from;
  for (const TableRef& t : tables) {
    from.push_back(t.table == t.alias ? t.table : t.table + " AS " + t.alias);
  }
  std::string sql = "SELECT " + (sel.empty() ? "*" : Join(sel, ", ")) +
                    " FROM " + Join(from, ", ");
  const char* conjunction = " WHERE ";
  for (const JoinPredicate& j : joins) {
    sql += conjunction + j.a.ToString() + " " + CompareOpSymbol(j.op) + " " +
           j.b.ToString();
    conjunction = " AND ";
  }
  for (const FilterPredicate& f : filters) {
    sql += conjunction + f.col.ToString() + " " + CompareOpSymbol(f.op) + " ";
    conjunction = " AND ";
    if (f.param < 0) {
      sql += f.literal.ToSqlLiteral();
      continue;
    }
    out.pieces.push_back(std::move(sql));
    sql.clear();
    out.gaps.push_back(f.param);
  }
  out.pieces.push_back(std::move(sql));
  return out;
}

std::string SelectQuery::ToSql() const {
  SqlTemplate sql = ToSqlTemplate();
  std::string out = std::move(sql.pieces[0]);
  size_t gap = 0;
  for (const FilterPredicate& f : filters) {
    if (f.param < 0) continue;
    out += f.literal.ToSqlLiteral();
    out += sql.pieces[++gap];
  }
  return out;
}

std::string SqlTemplate::Render(const std::vector<Value>& params) const {
  std::string out = pieces[0];
  for (size_t i = 0; i < gaps.size(); ++i) {
    out += params[static_cast<size_t>(gaps[i])].ToSqlLiteral();
    out += pieces[i + 1];
  }
  return out;
}

SelectQuery SelectQuery::Bind(const std::vector<Value>& params) const {
  SelectQuery bound = *this;
  for (FilterPredicate& f : bound.filters) {
    if (f.param >= 0) f.literal = params[static_cast<size_t>(f.param)];
  }
  return bound;
}

Result<QueryResult> QueryEvaluator::Execute(const SelectQuery& query) {
  QueryResult result;
  UFILTER_RETURN_NOT_OK(ExecuteImpl(query, &result).status());
  return result;
}

Result<bool> QueryEvaluator::Exists(const SelectQuery& query) {
  return ExecuteImpl(query, nullptr);
}

Result<bool> QueryEvaluator::ExecuteImpl(const SelectQuery& query,
                                         QueryResult* out) {
  Planner planner(db_, ctx_);
  UFILTER_ASSIGN_OR_RETURN(PhysicalPlan plan, planner.Compile(query));
  return RunPlan(plan, nullptr, out);
}

Result<QueryResult> QueryEvaluator::ExecutePlan(
    const PhysicalPlan& plan, const std::vector<Value>& params) {
  QueryResult result;
  UFILTER_RETURN_NOT_OK(ReplayPlan(plan, params, &result).status());
  return result;
}

Result<bool> QueryEvaluator::ExistsPlan(const PhysicalPlan& plan,
                                        const std::vector<Value>& params) {
  return ReplayPlan(plan, params, nullptr);
}

Result<bool> QueryEvaluator::ReplayPlan(const PhysicalPlan& plan,
                                        const std::vector<Value>& params,
                                        QueryResult* out) {
  if (params.size() < plan.param_count) {
    return Status::InvalidArgument(
        "plan has " + std::to_string(plan.param_count) +
        " parameter slot(s) but " + std::to_string(params.size()) +
        " value(s) were bound");
  }
  db_->counters().plan_replays->Inc();
  return RunPlan(plan, &params, out);
}

// ---------------------------------------------------------------------------
// Iterative compiled-plan executor
// ---------------------------------------------------------------------------

Result<bool> QueryEvaluator::RunPlan(const PhysicalPlan& plan,
                                     const std::vector<Value>* params,
                                     QueryResult* out) {
  const EngineCounters* counters = &db_->counters();
  // A filter's value: its parameter slot when the plan runs with
  // parameters, else its own literal.
  auto Lit = [params](const CompiledFilter& f) -> const Value& {
    return params != nullptr && f.param >= 0
               ? (*params)[static_cast<size_t>(f.param)]
               : f.literal;
  };
  counters->queries_executed->Inc();

  if (out != nullptr) out->column_names = plan.column_names;

  // Re-resolve tables by name once per execution (plans outlive temp-table
  // re-creations); the arity check rejects structurally stale plans.
  const size_t from_count = plan.table_names.size();
  std::vector<const Table*> tables(from_count);
  for (size_t i = 0; i < from_count; ++i) {
    UFILTER_ASSIGN_OR_RETURN(const Table* t,
                             db_->GetTable(ctx_, plan.table_names[i]));
    if (t->schema().columns().size() != plan.table_arities[i]) {
      return Status::InvalidArgument(
          "stale plan: table '" + plan.table_names[i] +
          "' was recreated with a different shape; recompile the query");
    }
    tables[i] = t;
  }
  const size_t depth = plan.levels.size();
  if (depth == 0) return false;

  // Per-level runtime state of the backtracking loop.
  struct LevelRt {
    std::vector<RowId> candidates;
    size_t cursor = 0;
    bool hash_built = false;
    /// kHashJoin: one-shot build over this level's table, keyed by
    /// Value::Hash of the join column (built lazily, once per execution).
    std::unordered_multimap<size_t, RowId> hash;
    /// Columnar cache of this level's table version; null = row path.
    std::shared_ptr<const ColumnarTable> columnar;
    /// kScan + columnar: candidates were filled (once per execution) by the
    /// vectorized selection-vector pass and are reused on re-entry.
    bool scan_built = false;
    /// The vectorized pass already verified this level's literal filters,
    /// so ResidualsOk must not re-evaluate them (joins still are).
    bool filters_prechecked = false;
  };
  std::vector<LevelRt> rt(depth);

  // Columnar eligibility is settled per execution, not per plan: cached
  // plans replay under pinned and unpinned contexts alike, and only base
  // tables resolved through a pinned snapshot are guaranteed immutable —
  // which is what makes lazily building and sharing a column cache safe.
  // Unpinned (live/dirty) reads and temp tables keep the row path.
  if (ctx_->read_snapshot() != nullptr) {
    for (size_t lvl = 0; lvl < depth; ++lvl) {
      const PlanLevel& spec = plan.levels[lvl];
      if (!spec.columnar) continue;
      const std::string& name =
          plan.table_names[static_cast<size_t>(spec.table_pos)];
      if (ctx_->IsTempTable(name)) continue;
      rt[lvl].columnar =
          tables[static_cast<size_t>(spec.table_pos)]->columnar(counters);
    }
  }

  std::vector<const Row*> rows(from_count, nullptr);
  std::vector<RowId> current(from_count, -1);

  // Fills rt[k].candidates for the current outer binding.
  auto EnterLevel = [&](size_t k) {
    const PlanLevel& spec = plan.levels[k];
    LevelRt& level = rt[k];
    level.cursor = 0;
    // Vectorized scan: evaluate every literal filter as a tight typed loop
    // over the columns, fusing the conjunction by compacting one shrinking
    // selection vector, and only then translate survivors to RowIds. The
    // result does not depend on outer bindings, so it is computed once per
    // execution and reused when the level is re-entered.
    if (spec.path == AccessPath::kScan && level.columnar != nullptr) {
      if (!level.scan_built) {
        level.scan_built = true;
        level.filters_prechecked = true;
        const ColumnarTable& col = *level.columnar;
        ColumnarTable::Sel sel;
        col.SelectAll(&sel);
        for (const CompiledFilter& f : spec.filters) {
          if (sel.empty()) break;
          col.FilterColumn(f.column, f.op, Lit(f), &sel);
        }
        counters->columnar_scan_rows->Add(col.row_count());
        counters->selection_vector_rows->Add(sel.size());
        const std::vector<RowId>& ids = col.row_ids();
        level.candidates.reserve(sel.size());
        for (uint32_t pos : sel) level.candidates.push_back(ids[pos]);
      }
      return;
    }
    level.candidates.clear();
    const Table* table = tables[static_cast<size_t>(spec.table_pos)];
    switch (spec.path) {
      case AccessPath::kScan:
        level.candidates = table->AllRowIds();
        counters->rows_scanned->Add(level.candidates.size());
        break;
      case AccessPath::kUniqueLookup:
      case AccessPath::kIndexLookup: {
        const Value& key =
            !spec.key_is_literal
                ? (*rows[static_cast<size_t>(spec.key_src_table)])
                      [static_cast<size_t>(spec.key_src_column)]
            : params != nullptr && spec.key_param >= 0
                ? (*params)[static_cast<size_t>(spec.key_param)]
                : spec.key_literal;
        if (!key.is_null()) {  // NULL never joins or matches
          table->ProbeIndexEq(spec.key_column, key, &level.candidates,
                              counters);
        }
        break;
      }
      case AccessPath::kHashJoin: {
        if (!level.hash_built) {
          level.hash_built = true;
          counters->hash_join_builds->Inc();
          level.hash.reserve(table->live_row_count());
          if (level.columnar != nullptr) {
            // Typed-array build: no GetRow, no Value dispatch per row.
            counters->columnar_scan_rows->Add(level.columnar->row_count());
            level.columnar->HashJoinBuild(spec.key_column, &level.hash);
          } else {
            // The build pass.
            counters->rows_scanned->Add(table->live_row_count());
            for (RowId id : table->AllRowIds()) {
              const Row* r = table->GetRow(id);
              if (r == nullptr) continue;
              const Value& v = (*r)[static_cast<size_t>(spec.key_column)];
              if (v.is_null()) continue;  // NULL never joins
              level.hash.emplace(v.Hash(), id);
            }
          }
        }
        const Value& probe = (*rows[static_cast<size_t>(spec.key_src_table)])
                                 [static_cast<size_t>(spec.key_src_column)];
        if (!probe.is_null()) {
          counters->hash_join_probes->Inc();
          auto range = level.hash.equal_range(probe.Hash());
          for (auto it = range.first; it != range.second; ++it) {
            level.candidates.push_back(it->second);
          }
        }
        break;
      }
    }
  };

  // All predicates fully bound once level k's table binds. Joins assigned
  // to a level have both sides bound by construction; the hash-join driver
  // is rechecked here (hash matches by Value::Hash, collisions possible).
  auto ResidualsOk = [&](size_t k) {
    const PlanLevel& spec = plan.levels[k];
    if (!rt[k].filters_prechecked) {
      for (const CompiledFilter& f : spec.filters) {
        if (!EvalCompare((*rows[static_cast<size_t>(f.table)])
                             [static_cast<size_t>(f.column)],
                         f.op, Lit(f))) {
          return false;
        }
      }
    }
    for (const CompiledJoin& j : spec.joins) {
      if (!EvalCompare((*rows[static_cast<size_t>(j.table_a)])
                           [static_cast<size_t>(j.column_a)],
                       j.op,
                       (*rows[static_cast<size_t>(j.table_b)])
                           [static_cast<size_t>(j.column_b)])) {
        return false;
      }
    }
    return true;
  };

  EnterLevel(0);
  size_t k = 0;
  while (true) {
    LevelRt& level = rt[k];
    const PlanLevel& spec = plan.levels[k];
    if (level.cursor >= level.candidates.size()) {
      rows[static_cast<size_t>(spec.table_pos)] = nullptr;
      current[static_cast<size_t>(spec.table_pos)] = -1;
      if (k == 0) break;
      --k;
      continue;
    }
    RowId id = level.candidates[level.cursor++];
    const Row* r = tables[static_cast<size_t>(spec.table_pos)]->GetRow(id);
    if (r == nullptr) continue;
    rows[static_cast<size_t>(spec.table_pos)] = r;
    current[static_cast<size_t>(spec.table_pos)] = id;
    if (!ResidualsOk(k)) continue;
    if (k + 1 == depth) {
      if (out == nullptr) return true;  // existence: the first row settles it
      Row row_out;
      row_out.reserve(plan.selects.size());
      for (auto [t, c] : plan.selects) {
        row_out.push_back(
            (*rows[static_cast<size_t>(t)])[static_cast<size_t>(c)]);
      }
      out->rows.push_back(std::move(row_out));
      out->row_ids.push_back(current);
      continue;
    }
    ++k;
    EnterLevel(k);
  }

  if (out == nullptr) return false;

  // Restore the FROM-order nested loop's deterministic output order:
  // lexicographic by contributing row ids in FROM order. (A nested loop
  // over sorted candidate lists in FROM order produces exactly this order;
  // the compiled join order and unsorted index probes do not.)
  const size_t result_count = out->rows.size();
  auto ids_less = [&](size_t a, size_t b) {
    return out->row_ids[a] < out->row_ids[b];
  };
  std::vector<size_t> perm(result_count);
  std::iota(perm.begin(), perm.end(), 0);
  if (!std::is_sorted(perm.begin(), perm.end(), ids_less)) {
    std::sort(perm.begin(), perm.end(), ids_less);
    std::vector<Row> sorted_rows;
    std::vector<std::vector<RowId>> sorted_ids;
    sorted_rows.reserve(result_count);
    sorted_ids.reserve(result_count);
    for (size_t i : perm) {
      sorted_rows.push_back(std::move(out->rows[i]));
      sorted_ids.push_back(std::move(out->row_ids[i]));
    }
    out->rows = std::move(sorted_rows);
    out->row_ids = std::move(sorted_ids);
  }
  return result_count > 0;
}

Status QueryEvaluator::MaterializeInto(const SelectQuery& query,
                                       const std::string& temp_name) {
  UFILTER_ASSIGN_OR_RETURN(QueryResult res, Execute(query));
  const size_t cols = query.selects.size();
  // Column names keep only the column part; duplicate names get suffixes.
  std::vector<std::string> names;
  names.reserve(cols);
  std::map<std::string, int> seen;
  for (const ColRef& s : query.selects) {
    std::string name = s.column;
    int n = seen[name]++;
    if (n > 0) name += "_" + std::to_string(n);
    names.push_back(std::move(name));
  }
  // One pass over the result: each column's type is its first non-NULL
  // value's (fall back to string); resolved columns stop being examined.
  std::vector<ValueType> types(cols, ValueType::kString);
  std::vector<char> known(cols, 0);
  size_t unknown = cols;
  for (const Row& row : res.rows) {
    if (unknown == 0) break;
    for (size_t i = 0; i < cols; ++i) {
      if (known[i] || row[i].is_null()) continue;
      types[i] = row[i].type();
      known[i] = 1;
      --unknown;
    }
  }
  TableSchema schema(temp_name);
  for (size_t i = 0; i < cols; ++i) {
    schema.AddColumn(names[i], types[i]);
  }
  UFILTER_ASSIGN_OR_RETURN(Table * temp, ctx_->CreateTempTable(schema));
  (void)temp;
  // Temp tables are index-free and unconstrained: bulk-load with one
  // reserve instead of row-by-row FK/unique checking that can never trip.
  return ctx_->BulkLoadTemp(temp_name, std::move(res.rows));
}

}  // namespace ufilter::relational
