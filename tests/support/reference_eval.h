// The reference SPJ interpreter: the recursive left-deep nested loop over
// the FROM list that the cost-based planner and its iterative executor
// (relational/planner.h, relational/query.h) replaced. It stays as the
// semantic oracle of integration/differential and as the interpreted
// baseline of bench_planner. It reads only the engine's public table API.
//
// Semantics it pins down: a row is emitted for every binding that
// satisfies every join and filter; NULL never joins or matches; result
// rows come out lexicographically by contributing row ids in FROM order
// (candidates are enumerated sorted, table by table in FROM order), which
// is the order QueryEvaluator restores after its own join order.
#ifndef UFILTER_TESTS_SUPPORT_REFERENCE_EVAL_H_
#define UFILTER_TESTS_SUPPORT_REFERENCE_EVAL_H_

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "relational/query.h"

namespace ufilter::test_support {

/// Evaluates `query` against `db`'s base tables plus `ctx`'s temp tables
/// with the reference interpreter. Counts one executed query and its scans
/// and index lookups in the engine counters, like the compiled executor.
inline Result<relational::QueryResult> ExecuteReference(
    relational::Database* db, relational::ExecutionContext* ctx,
    const relational::SelectQuery& query) {
  using relational::ColRef;
  using relational::FilterPredicate;
  using relational::JoinPredicate;
  using relational::Row;
  using relational::RowId;
  using relational::Table;

  // Resolve tables.
  struct BoundTable {
    const Table* table;
    std::string alias;
  };
  std::vector<BoundTable> bound;
  std::map<std::string, int> alias_pos;
  for (const auto& tref : query.tables) {
    if (alias_pos.count(tref.alias) > 0) {
      return Status::InvalidArgument("duplicate alias '" + tref.alias + "'");
    }
    UFILTER_ASSIGN_OR_RETURN(const Table* t, db->GetTable(ctx, tref.table));
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
  std::vector<std::pair<int, int>> selects;
  for (const ColRef& s : query.selects) {
    UFILTER_ASSIGN_OR_RETURN(auto c, resolve(s));
    selects.push_back(c);
  }

  relational::QueryResult result;
  for (const ColRef& s : query.selects) {
    result.column_names.push_back(s.ToString());
  }

  const relational::EngineCounters* counters = &db->counters();
  counters->queries_executed->Inc();
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

  std::function<void(size_t)> Recurse = [&](size_t k) {
    if (k == bound.size()) {
      Row row_out;
      row_out.reserve(selects.size());
      for (auto [t, c] : selects) {
        row_out.push_back(
            (*rows[static_cast<size_t>(t)])[static_cast<size_t>(c)]);
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
    if (!used_index) {
      candidates = table->AllRowIds();
      counters->rows_scanned->Add(candidates.size());
    }

    for (RowId id : candidates) {
      const Row* r = table->GetRow(id);
      if (r == nullptr) continue;
      rows[k] = r;
      current[k] = id;
      if (PredsSatisfied(k)) Recurse(k + 1);
      rows[k] = nullptr;
      current[k] = -1;
    }
  };

  if (!bound.empty()) Recurse(0);
  return result;
}

}  // namespace ufilter::test_support

#endif  // UFILTER_TESTS_SUPPORT_REFERENCE_EVAL_H_
