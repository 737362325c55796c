#include "relational/planner.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ufilter::relational {

namespace {

/// Candidate access path for one table given the already-placed set.
struct AccessChoice {
  AccessPath path = AccessPath::kScan;
  double est = 0;
  int key_column = -1;
  bool key_is_literal = false;
  Value key_literal;
  int key_param = -1;
  int key_src_table = -1;
  int key_src_column = -1;
  int driver_filter = -1;  ///< index into filters when literal-driven
  int driver_join = -1;    ///< index into joins when join-driven
};

}  // namespace

Result<PhysicalPlan> Planner::Compile(const SelectQuery& query) {
  PhysicalPlan plan;

  // ---- Name resolution: aliases and columns become integer slots. --------
  std::vector<const Table*> tables;
  std::unordered_map<std::string, int> alias_pos;
  for (const auto& tref : query.tables) {
    if (alias_pos.count(tref.alias) > 0) {
      return Status::InvalidArgument("duplicate alias '" + tref.alias + "'");
    }
    UFILTER_ASSIGN_OR_RETURN(const Table* t,
                             db_->GetTable(ctx_, tref.table));
    alias_pos[tref.alias] = static_cast<int>(tables.size());
    tables.push_back(t);
    plan.table_names.push_back(tref.table);
    plan.table_arities.push_back(t->schema().columns().size());
  }

  auto resolve = [&](const ColRef& ref) -> Result<std::pair<int, int>> {
    auto it = alias_pos.find(ref.alias);
    if (it == alias_pos.end()) {
      return Status::NotFound("unknown alias '" + ref.alias + "'");
    }
    int col = tables[static_cast<size_t>(it->second)]
                  ->schema()
                  .ColumnIndex(ref.column);
    if (col < 0) {
      return Status::NotFound("no column '" + ref.column + "' in alias '" +
                              ref.alias + "'");
    }
    return std::make_pair(it->second, col);
  };

  std::vector<CompiledJoin> joins;
  for (const JoinPredicate& j : query.joins) {
    UFILTER_ASSIGN_OR_RETURN(auto a, resolve(j.a));
    UFILTER_ASSIGN_OR_RETURN(auto b, resolve(j.b));
    joins.push_back({a.first, a.second, b.first, b.second, j.op});
  }
  std::vector<CompiledFilter> filters;
  for (const FilterPredicate& f : query.filters) {
    UFILTER_ASSIGN_OR_RETURN(auto c, resolve(f.col));
    filters.push_back({c.first, c.second, f.op, f.literal, f.param});
    if (f.param >= 0) {
      plan.param_count =
          std::max(plan.param_count, static_cast<size_t>(f.param) + 1);
    }
  }
  for (const ColRef& s : query.selects) {
    UFILTER_ASSIGN_OR_RETURN(auto c, resolve(s));
    plan.selects.push_back(c);
    plan.column_names.push_back(s.ToString());
  }

  // ---- Greedy join ordering + per-level access-path selection. -----------
  const size_t table_count = tables.size();
  std::vector<char> placed(table_count, 0);

  // Best access path for `t` given the placed set, with its cardinality
  // estimate: unique-index equality => 1, non-unique index => bucket
  // estimate, else live_row_count (hash join or scan).
  auto ChooseAccess = [&](int t) {
    const Table* tab = tables[static_cast<size_t>(t)];
    const double live = static_cast<double>(tab->live_row_count());
    AccessChoice best;
    best.est = live;
    bool have_index_path = false;

    // Literal equality on an indexed column.
    for (size_t fi = 0; fi < filters.size(); ++fi) {
      const CompiledFilter& f = filters[fi];
      if (f.table != t || f.op != CompareOp::kEq) continue;
      if (!tab->HasIndexOnColumn(f.column)) continue;
      double est = tab->EstimateEqMatches(f.column);
      if (have_index_path && est >= best.est) continue;
      best = AccessChoice{};
      best.path = tab->HasUniqueIndexOnColumn(f.column)
                      ? AccessPath::kUniqueLookup
                      : AccessPath::kIndexLookup;
      best.est = est;
      best.key_column = f.column;
      best.key_is_literal = true;
      best.key_literal = f.literal;
      best.key_param = f.param;
      best.driver_filter = static_cast<int>(fi);
      have_index_path = true;
    }
    // Equi-join against an already-placed table, this side indexed.
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      const CompiledJoin& j = joins[ji];
      if (j.op != CompareOp::kEq) continue;
      int my_col, other_t, other_c;
      if (j.table_a == t && placed[static_cast<size_t>(j.table_b)]) {
        my_col = j.column_a;
        other_t = j.table_b;
        other_c = j.column_b;
      } else if (j.table_b == t && placed[static_cast<size_t>(j.table_a)]) {
        my_col = j.column_b;
        other_t = j.table_a;
        other_c = j.column_a;
      } else {
        continue;
      }
      if (!tab->HasIndexOnColumn(my_col)) continue;
      double est = tab->EstimateEqMatches(my_col);
      if (have_index_path && est >= best.est) continue;
      best = AccessChoice{};
      best.path = tab->HasUniqueIndexOnColumn(my_col)
                      ? AccessPath::kUniqueLookup
                      : AccessPath::kIndexLookup;
      best.est = est;
      best.key_column = my_col;
      best.key_src_table = other_t;
      best.key_src_column = other_c;
      best.driver_join = static_cast<int>(ji);
      have_index_path = true;
    }
    if (have_index_path) return best;

    // Hash join: equi-join to a placed table with no index on this side —
    // build a one-shot hash table over this table instead of re-scanning it
    // per outer row (the temp-table rescue).
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      const CompiledJoin& j = joins[ji];
      if (j.op != CompareOp::kEq) continue;
      int my_col, other_t, other_c;
      if (j.table_a == t && placed[static_cast<size_t>(j.table_b)]) {
        my_col = j.column_a;
        other_t = j.table_b;
        other_c = j.column_b;
      } else if (j.table_b == t && placed[static_cast<size_t>(j.table_a)]) {
        my_col = j.column_b;
        other_t = j.table_a;
        other_c = j.column_a;
      } else {
        continue;
      }
      best = AccessChoice{};
      best.path = AccessPath::kHashJoin;
      best.est = live;
      best.key_column = my_col;
      best.key_src_table = other_t;
      best.key_src_column = other_c;
      best.driver_join = static_cast<int>(ji);
      return best;
    }

    return best;  // kScan, est = live_row_count
  };

  for (size_t step = 0; step < table_count; ++step) {
    int pick = -1;
    AccessChoice choice;
    for (size_t t = 0; t < table_count; ++t) {
      if (placed[t]) continue;
      AccessChoice c = ChooseAccess(static_cast<int>(t));
      if (pick < 0 || c.est < choice.est) {
        pick = static_cast<int>(t);
        choice = std::move(c);
      }
    }
    placed[static_cast<size_t>(pick)] = 1;

    PlanLevel level;
    level.table_pos = pick;
    level.path = choice.path;
    level.key_column = choice.key_column;
    level.key_is_literal = choice.key_is_literal;
    level.key_literal = choice.key_literal;
    level.key_param = choice.key_param;
    level.key_src_table = choice.key_src_table;
    level.key_src_column = choice.key_src_column;
    level.columnar = (choice.path == AccessPath::kScan ||
                      choice.path == AccessPath::kHashJoin) &&
                     !ctx_->IsTempTable(
                         plan.table_names[static_cast<size_t>(pick)]);
    // Residual literal filters (probe-driving one excluded: verified).
    for (size_t fi = 0; fi < filters.size(); ++fi) {
      if (filters[fi].table != pick) continue;
      if (static_cast<int>(fi) == choice.driver_filter) continue;
      level.filters.push_back(filters[fi]);
    }
    // Joins whose later side binds here. The driving join of an index probe
    // is verified by the probe; a hash-join driver stays (collision check).
    for (size_t ji = 0; ji < joins.size(); ++ji) {
      const CompiledJoin& j = joins[ji];
      if (j.table_a != pick && j.table_b != pick) continue;
      int other = (j.table_a == pick) ? j.table_b : j.table_a;
      if (!placed[static_cast<size_t>(other)]) continue;
      if (static_cast<int>(ji) == choice.driver_join &&
          level.path != AccessPath::kHashJoin) {
        continue;
      }
      level.joins.push_back(j);
    }
    plan.levels.push_back(std::move(level));
  }

  db_->counters().plans_compiled->Inc();
  return plan;
}

}  // namespace ufilter::relational
