#include "relational/query.h"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <unordered_map>

#include "common/strings.h"
#include "relational/columnar.h"
#include "relational/planner.h"

namespace ufilter::relational {

std::string SelectQuery::ToSql() const {
  std::vector<std::string> sel;
  for (const ColRef& c : selects) sel.push_back(c.ToString());
  std::vector<std::string> from;
  for (const TableRef& t : tables) {
    from.push_back(t.table == t.alias ? t.table : t.table + " AS " + t.alias);
  }
  std::vector<std::string> where;
  for (const JoinPredicate& j : joins) {
    where.push_back(j.a.ToString() + " " + CompareOpSymbol(j.op) + " " +
                    j.b.ToString());
  }
  for (const FilterPredicate& f : filters) {
    where.push_back(f.col.ToString() + " " + CompareOpSymbol(f.op) + " " +
                    f.literal.ToSqlLiteral());
  }
  std::string sql = "SELECT " + (sel.empty() ? "*" : Join(sel, ", ")) +
                    " FROM " + Join(from, ", ");
  if (!where.empty()) sql += " WHERE " + Join(where, " AND ");
  return sql;
}

std::string DisjunctiveQuery::ToSql() const {
  std::string sql = base.ToSql();
  if (branches.empty()) return sql;
  std::vector<std::string> ors;
  for (const std::vector<FilterPredicate>& branch : branches) {
    if (branch.empty()) {
      ors.push_back("(TRUE)");
      continue;
    }
    std::vector<std::string> conj;
    for (const FilterPredicate& f : branch) {
      conj.push_back(f.col.ToString() + " " + CompareOpSymbol(f.op) + " " +
                     f.literal.ToSqlLiteral());
    }
    ors.push_back("(" + Join(conj, " AND ") + ")");
  }
  bool base_has_where = !base.joins.empty() || !base.filters.empty();
  sql += (base_has_where ? " AND (" : " WHERE (") + Join(ors, " OR ") + ")";
  return sql;
}

QueryResult DisjunctiveResult::Extract(size_t b) const {
  QueryResult out;
  out.column_names = merged.column_names;
  if (b >= branch_rows.size()) return out;
  for (size_t i : branch_rows[b]) {
    out.rows.push_back(merged.rows[i]);
    out.row_ids.push_back(merged.row_ids[i]);
  }
  return out;
}

Result<QueryResult> QueryEvaluator::Execute(const SelectQuery& query) {
  UFILTER_ASSIGN_OR_RETURN(DisjunctiveResult result, ExecuteImpl(query, {}));
  return std::move(result.merged);
}

Result<DisjunctiveResult> QueryEvaluator::ExecuteDisjunctive(
    const DisjunctiveQuery& dq) {
  return ExecuteImpl(dq.base, dq.branches);
}

Result<DisjunctiveResult> QueryEvaluator::ExecuteImpl(
    const SelectQuery& query,
    const std::vector<std::vector<FilterPredicate>>& branches) {
  Planner planner(db_, ctx_);
  UFILTER_ASSIGN_OR_RETURN(PhysicalPlan plan,
                           planner.CompileDisjunctive(query, branches));
  return RunPlan(plan);
}

Result<DisjunctiveResult> QueryEvaluator::ExecutePlan(
    const PhysicalPlan& plan) {
  db_->counters().plan_replays->Inc();
  return RunPlan(plan);
}

// ---------------------------------------------------------------------------
// Iterative compiled-plan executor
// ---------------------------------------------------------------------------

Result<DisjunctiveResult> QueryEvaluator::RunPlan(const PhysicalPlan& plan) {
  const EngineCounters* counters = &db_->counters();
  counters->queries_executed->Inc();
  if (plan.branch_count > 0) {
    counters->batch_queries_executed->Inc();
    counters->batch_branches_merged->Add(plan.branch_count);
  }

  DisjunctiveResult out;
  out.branch_rows.resize(plan.branch_count);
  out.merged.column_names = plan.column_names;

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
  if (depth == 0) return out;

  // Per-level runtime state of the backtracking loop.
  struct LevelRt {
    std::vector<RowId> candidates;
    size_t cursor = 0;
    std::vector<char> alive;       ///< branch aliveness entering this level
    std::vector<char> next_alive;  ///< scratch for the current candidate
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
  for (LevelRt& level : rt) {
    level.alive.assign(plan.branch_count, 1);
    level.next_alive.assign(plan.branch_count, 0);
  }

  // Columnar eligibility is decided per execution, not per plan: cached
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
  // Per emitted row: which branches it satisfies (only with branches).
  std::vector<std::vector<char>> emitted_alive;

  // Fills rt[k].candidates for the current outer binding; rt[k].alive must
  // already hold the aliveness entering the level.
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
          col.FilterColumn(f.column, f.op, f.literal, &sel);
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
            spec.key_is_literal
                ? spec.key_literal
                : (*rows[static_cast<size_t>(spec.key_src_table)])
                      [static_cast<size_t>(spec.key_src_column)];
        if (!key.is_null()) {  // NULL never joins or matches
          table->ProbeIndexEq(spec.key_column, key, &level.candidates,
                              counters);
        }
        break;
      }
      case AccessPath::kInListUnion: {
        for (size_t b = 0; b < plan.branch_count; ++b) {
          if (!level.alive[b]) continue;  // dead branch: skip its lookup
          const CompiledFilter& pin = spec.branch_pins[b];
          if (pin.literal.is_null()) continue;
          table->ProbeIndexEq(pin.column, pin.literal, &level.candidates,
                              counters);
        }
        // Union, not concatenation: a row matching several branches must
        // appear once.
        std::sort(level.candidates.begin(), level.candidates.end());
        level.candidates.erase(
            std::unique(level.candidates.begin(), level.candidates.end()),
            level.candidates.end());
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
                         f.op, f.literal)) {
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
    bool any_alive = plan.branch_count == 0;
    for (size_t b = 0; b < plan.branch_count; ++b) {
      char a = level.alive[b];
      if (a) {
        for (const CompiledFilter& f : spec.branch_filters[b]) {
          if (!EvalCompare((*rows[static_cast<size_t>(f.table)])
                               [static_cast<size_t>(f.column)],
                           f.op, f.literal)) {
            a = 0;
            break;
          }
        }
      }
      level.next_alive[b] = a;
      any_alive |= a != 0;
    }
    if (!any_alive) continue;  // no live branch can produce a result row
    if (k + 1 == depth) {
      Row row_out;
      row_out.reserve(plan.selects.size());
      for (auto [t, c] : plan.selects) {
        row_out.push_back(
            (*rows[static_cast<size_t>(t)])[static_cast<size_t>(c)]);
      }
      out.merged.rows.push_back(std::move(row_out));
      out.merged.row_ids.push_back(current);
      if (plan.branch_count > 0) emitted_alive.push_back(level.next_alive);
      continue;
    }
    rt[k + 1].alive = level.next_alive;
    ++k;
    EnterLevel(k);
  }

  // Restore the reference interpreter's deterministic output order:
  // lexicographic by contributing row ids in FROM order. (The reference
  // enumerates sorted candidate lists in FROM order, which produces exactly
  // this order; the compiled join order and unsorted index probes do not.)
  const size_t result_count = out.merged.rows.size();
  auto ids_less = [&](size_t a, size_t b) {
    return out.merged.row_ids[a] < out.merged.row_ids[b];
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
      sorted_rows.push_back(std::move(out.merged.rows[i]));
      sorted_ids.push_back(std::move(out.merged.row_ids[i]));
    }
    out.merged.rows = std::move(sorted_rows);
    out.merged.row_ids = std::move(sorted_ids);
  }
  for (size_t b = 0; b < plan.branch_count; ++b) {
    for (size_t i = 0; i < result_count; ++i) {
      if (emitted_alive[perm[i]][b]) out.branch_rows[b].push_back(i);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reference interpreter (pre-planner recursive evaluator)
// ---------------------------------------------------------------------------

namespace {

struct BoundTable {
  const Table* table;
  std::string alias;
};

}  // namespace

Result<DisjunctiveResult> QueryEvaluator::ExecuteReference(
    const SelectQuery& query,
    const std::vector<std::vector<FilterPredicate>>& query_branches) {
  // Resolve tables.
  std::vector<BoundTable> bound;
  std::map<std::string, int> alias_pos;
  for (const auto& tref : query.tables) {
    if (alias_pos.count(tref.alias) > 0) {
      return Status::InvalidArgument("duplicate alias '" + tref.alias + "'");
    }
    UFILTER_ASSIGN_OR_RETURN(const Table* t,
                             db_->GetTable(ctx_, tref.table));
    alias_pos[tref.alias] = static_cast<int>(bound.size());
    bound.push_back({t, tref.alias});
  }

  auto resolve = [&](const ColRef& ref) -> Result<std::pair<int, int>> {
    auto it = alias_pos.find(ref.alias);
    if (it == alias_pos.end()) {
      return Status::NotFound("unknown alias '" + ref.alias + "'");
    }
    int col = bound[static_cast<size_t>(it->second)]
                  .table->schema()
                  .ColumnIndex(ref.column);
    if (col < 0) {
      return Status::NotFound("no column '" + ref.column + "' in alias '" +
                              ref.alias + "'");
    }
    return std::make_pair(it->second, col);
  };

  // Pre-resolve predicates.
  struct RJoin {
    int ta, ca, tb, cb;
    CompareOp op;
  };
  struct RFilter {
    int t, c;
    CompareOp op;
    Value literal;
  };
  std::vector<RJoin> joins;
  for (const JoinPredicate& j : query.joins) {
    UFILTER_ASSIGN_OR_RETURN(auto a, resolve(j.a));
    UFILTER_ASSIGN_OR_RETURN(auto b, resolve(j.b));
    joins.push_back({a.first, a.second, b.first, b.second, j.op});
  }
  std::vector<RFilter> filters;
  for (const FilterPredicate& f : query.filters) {
    UFILTER_ASSIGN_OR_RETURN(auto c, resolve(f.col));
    filters.push_back({c.first, c.second, f.op, f.literal});
  }
  std::vector<std::vector<RFilter>> branches;
  for (const std::vector<FilterPredicate>& branch : query_branches) {
    std::vector<RFilter> rbranch;
    for (const FilterPredicate& f : branch) {
      UFILTER_ASSIGN_OR_RETURN(auto c, resolve(f.col));
      rbranch.push_back({c.first, c.second, f.op, f.literal});
    }
    branches.push_back(std::move(rbranch));
  }
  std::vector<std::pair<int, int>> selects;
  for (const ColRef& s : query.selects) {
    UFILTER_ASSIGN_OR_RETURN(auto c, resolve(s));
    selects.push_back(c);
  }

  DisjunctiveResult out;
  out.branch_rows.resize(branches.size());
  QueryResult& result = out.merged;
  for (const ColRef& s : query.selects) {
    result.column_names.push_back(s.ToString());
  }

  const EngineCounters* counters = &db_->counters();
  counters->queries_executed->Inc();
  if (!branches.empty()) {
    counters->batch_queries_executed->Inc();
    counters->batch_branches_merged->Add(branches.size());
  }
  // Left-deep recursive join over tables in FROM order.
  std::vector<RowId> current(bound.size(), -1);
  std::vector<const Row*> rows(bound.size(), nullptr);

  // Evaluates all predicates fully bound once table `k` is added.
  auto PredsSatisfied = [&](size_t k) {
    for (const RFilter& f : filters) {
      if (static_cast<size_t>(f.t) == k) {
        if (!EvalCompare((*rows[k])[static_cast<size_t>(f.c)], f.op,
                         f.literal)) {
          return false;
        }
      }
    }
    for (const RJoin& j : joins) {
      size_t hi = static_cast<size_t>(std::max(j.ta, j.tb));
      if (hi != k) continue;
      const Row* ra = rows[static_cast<size_t>(j.ta)];
      const Row* rb = rows[static_cast<size_t>(j.tb)];
      if (ra == nullptr || rb == nullptr) continue;  // other side not yet bound
      if (!EvalCompare((*ra)[static_cast<size_t>(j.ca)], j.op,
                       (*rb)[static_cast<size_t>(j.cb)])) {
        return false;
      }
    }
    return true;
  };

  // Per-branch conjunct test for the predicates of branch `b` fully bound
  // once table `k` is added.
  auto BranchSatisfiedAt = [&](size_t b, size_t k) {
    for (const RFilter& f : branches[b]) {
      if (static_cast<size_t>(f.t) == k) {
        if (!EvalCompare((*rows[k])[static_cast<size_t>(f.c)], f.op,
                         f.literal)) {
          return false;
        }
      }
    }
    return true;
  };

  // `alive[b]` = branch b's conjuncts have held for every table bound so
  // far. A subtree with no live branch left cannot produce a result row.
  std::function<void(size_t, const std::vector<char>&)> Recurse =
      [&](size_t k, const std::vector<char>& alive) {
    if (k == bound.size()) {
      Row row_out;
      row_out.reserve(selects.size());
      for (auto [t, c] : selects) {
        row_out.push_back(
            (*rows[static_cast<size_t>(t)])[static_cast<size_t>(c)]);
      }
      for (size_t b = 0; b < branches.size(); ++b) {
        if (alive[b]) out.branch_rows[b].push_back(result.rows.size());
      }
      result.rows.push_back(std::move(row_out));
      result.row_ids.push_back(current);
      return;
    }
    const Table* table = bound[k].table;

    // Candidate generation: index lookup if an equality predicate binds an
    // indexed column of this table to an already-bound value or a literal.
    std::vector<RowId> candidates;
    bool used_index = false;
    // Literal equality filter on an indexed column.
    for (const RFilter& f : filters) {
      if (static_cast<size_t>(f.t) != k || f.op != CompareOp::kEq) continue;
      const std::string& col_name =
          table->schema().columns()[static_cast<size_t>(f.c)].name;
      if (!table->HasIndexOn(col_name)) continue;
      candidates =
          table->Find({{col_name, CompareOp::kEq, f.literal}}, counters);
      used_index = true;
      break;
    }
    // Join equality against an earlier table, new side indexed.
    if (!used_index) {
      for (const RJoin& j : joins) {
        int other = -1, my_col = -1;
        if (static_cast<size_t>(j.ta) == k &&
            static_cast<size_t>(j.tb) < k && j.op == CompareOp::kEq) {
          other = j.tb;
          my_col = j.ca;
        } else if (static_cast<size_t>(j.tb) == k &&
                   static_cast<size_t>(j.ta) < k && j.op == CompareOp::kEq) {
          other = j.ta;
          my_col = j.cb;
        } else {
          continue;
        }
        const std::string& col_name =
            table->schema().columns()[static_cast<size_t>(my_col)].name;
        if (!table->HasIndexOn(col_name)) continue;
        int other_col = (other == j.ta) ? j.ca : j.cb;
        const Value& v =
            (*rows[static_cast<size_t>(other)])[static_cast<size_t>(other_col)];
        if (v.is_null()) return;  // NULL joins nothing
        candidates = table->Find({{col_name, CompareOp::kEq, v}}, counters);
        used_index = true;
        break;
      }
    }
    // IN-list probe: every live branch pins this table with an equality on
    // an indexed column -> the scan becomes the union of index lookups (how
    // the merged probe of a batch keeps per-update index access).
    if (!used_index && !branches.empty()) {
      // First confirm every live branch has a pin (no lookups yet, so the
      // work counters never record discarded index probes), then union.
      std::vector<const RFilter*> pins(branches.size(), nullptr);
      bool all_pinned = true;
      for (size_t b = 0; b < branches.size() && all_pinned; ++b) {
        if (!alive[b]) continue;
        for (const RFilter& f : branches[b]) {
          if (static_cast<size_t>(f.t) != k || f.op != CompareOp::kEq) {
            continue;
          }
          const std::string& col_name =
              table->schema().columns()[static_cast<size_t>(f.c)].name;
          if (table->HasIndexOn(col_name)) {
            pins[b] = &f;
            break;
          }
        }
        if (pins[b] == nullptr) all_pinned = false;
      }
      if (all_pinned) {
        std::vector<RowId> merged_candidates;
        for (size_t b = 0; b < branches.size(); ++b) {
          if (pins[b] == nullptr) continue;  // dead branch
          const std::string& col_name =
              table->schema().columns()[static_cast<size_t>(pins[b]->c)].name;
          for (RowId id : table->Find(
                   {{col_name, CompareOp::kEq, pins[b]->literal}}, counters)) {
            merged_candidates.push_back(id);
          }
        }
        std::sort(merged_candidates.begin(), merged_candidates.end());
        merged_candidates.erase(
            std::unique(merged_candidates.begin(), merged_candidates.end()),
            merged_candidates.end());
        candidates = std::move(merged_candidates);
        used_index = true;
      }
    }
    if (!used_index) {
      candidates = table->AllRowIds();
      counters->rows_scanned->Add(candidates.size());
    }

    std::vector<char> next_alive(branches.size());
    for (RowId id : candidates) {
      const Row* r = table->GetRow(id);
      if (r == nullptr) continue;
      rows[k] = r;
      current[k] = id;
      if (PredsSatisfied(k)) {
        bool any_alive = branches.empty();
        for (size_t b = 0; b < branches.size(); ++b) {
          next_alive[b] = alive[b] && BranchSatisfiedAt(b, k);
          any_alive |= next_alive[b] != 0;
        }
        if (any_alive) Recurse(k + 1, next_alive);
      }
      rows[k] = nullptr;
      current[k] = -1;
    }
  };

  if (!bound.empty()) {
    Recurse(0, std::vector<char>(branches.size(), 1));
  }
  return out;
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
