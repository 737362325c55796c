// Conjunctive select-project-join queries and their evaluator. This is the
// fragment U-Filter needs: view queries compose into SPJ probe queries
// (Section 6.1), which the engine evaluates with index-backed left-deep
// joins. Materialization of probe results into temp tables is supported for
// the outside strategy (the paper's "TAB_book").
#ifndef UFILTER_RELATIONAL_QUERY_H_
#define UFILTER_RELATIONAL_QUERY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/database.h"

namespace ufilter::relational {

/// `alias.column` reference into a query's FROM list.
struct ColRef {
  std::string alias;
  std::string column;

  std::string ToString() const { return alias + "." + column; }
  bool operator==(const ColRef& o) const {
    return alias == o.alias && column == o.column;
  }
};

/// Equi/theta join between two aliases: `a <op> b`.
struct JoinPredicate {
  ColRef a;
  CompareOp op = CompareOp::kEq;
  ColRef b;
};

/// Filter against a literal: `col <op> literal`. A filter with a `param`
/// slot (>= 0) is a parameter: a plan compiled from it reads the value
/// from the parameter vector it is executed with (QueryEvaluator::
/// ExecutePlan), so one plan serves every value; `literal` holds the
/// value only once the query is bound (SelectQuery::Bind).
struct FilterPredicate {
  ColRef col;
  CompareOp op = CompareOp::kEq;
  Value literal;
  int param = -1;
};

/// \brief SQL text rendered once for a query with parameter slots: the
/// text between the slots, and the slot each gap takes its value from.
struct SqlTemplate {
  std::vector<std::string> pieces;  ///< gaps.size() + 1 entries
  std::vector<int> gaps;            ///< parameter slot per gap

  /// The SQL with `params[slot]` spliced into each gap.
  std::string Render(const std::vector<Value>& params) const;
};

/// \brief A conjunctive SPJ query: SELECT selects FROM tables WHERE
/// joins AND filters.
struct SelectQuery {
  struct TableRef {
    std::string table;  ///< table name in the database
    std::string alias;  ///< unique alias within the query
  };

  std::vector<ColRef> selects;
  std::vector<TableRef> tables;
  std::vector<JoinPredicate> joins;
  std::vector<FilterPredicate> filters;

  /// SQL text rendering of this query.
  std::string ToSql() const;
  /// The same text with a gap at every parameter filter's value.
  SqlTemplate ToSqlTemplate() const;
  /// A copy with every parameter filter's literal set to `params[param]`.
  SelectQuery Bind(const std::vector<Value>& params) const;
};

/// \brief Evaluation output: projected rows plus, per result row, the row id
/// of each participating table (needed to translate updates to ROWIDs).
struct QueryResult {
  std::vector<std::string> column_names;  ///< "alias.column"
  std::vector<Row> rows;
  /// row_ids[i][j] = RowId in tables[j] contributing to rows[i].
  std::vector<std::vector<RowId>> row_ids;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }
};

struct PhysicalPlan;  // relational/planner.h

/// \brief Evaluates SPJ queries against a Database.
///
/// Every query is compiled by the cost-based Planner (relational/planner.h)
/// into a PhysicalPlan — names resolved to slots, join order chosen by
/// estimated cardinality, per-level access paths picked from
/// {unique/non-unique index lookup, hash join, scan} — and run by an
/// iterative executor. Callers holding a long-lived query replay a cached
/// plan through ExecutePlan with zero name resolution. Result rows are
/// ordered lexicographically by contributing row ids in FROM order, the
/// order a left-deep nested loop over the FROM list would produce.
class QueryEvaluator {
 public:
  /// Evaluates against the tables `stores` holds: one statement's live
  /// stores, or a check-only statement's overlay (relational/dryrun.h),
  /// whose earlier writes the queries then see. A null `stores` means
  /// `db`'s base tables plus `ctx`'s temp tables, as `ctx` resolves them,
  /// through fresh live stores per query. A null `ctx` means the
  /// database's root context (single-session convenience); `ctx` also
  /// scopes planning, and temp tables created by MaterializeInto land in
  /// it.
  explicit QueryEvaluator(Database* db, ExecutionContext* ctx = nullptr,
                          TableStores* stores = nullptr)
      : db_(db),
        ctx_(ctx != nullptr ? ctx : db->root_context()),
        stores_(stores) {}

  Result<QueryResult> Execute(const SelectQuery& query);

  /// Whether `query` has a result row. The executor stops at the first row
  /// its join order meets, so the answer costs that row, not the result;
  /// which row it was is not reported.
  Result<bool> Exists(const SelectQuery& query);

  /// Replays a previously compiled plan (counts as a plan replay: zero
  /// name resolution or planning happens here). Tables are re-resolved by
  /// name, so a plan stays valid across temp-table re-creations as long as
  /// the arities still match. `params` fills the plan's parameter slots
  /// and must cover all of them.
  Result<QueryResult> ExecutePlan(const PhysicalPlan& plan,
                                  const std::vector<Value>& params = {});

  /// ExecutePlan's existence form: whether the plan yields a row, found the
  /// way Exists finds it.
  Result<bool> ExistsPlan(const PhysicalPlan& plan,
                          const std::vector<Value>& params = {});

  /// Executes `query` and materializes the full result (all selected
  /// columns) into a temp table named `temp_name` with no indexes. Column
  /// types are inferred in one pass over the result; rows are bulk-loaded.
  Status MaterializeInto(const SelectQuery& query,
                         const std::string& temp_name);

 private:
  /// Execute/Exists's core: compiles `query` into a PhysicalPlan and runs
  /// it (RunPlan).
  Result<bool> ExecuteImpl(const SelectQuery& query, QueryResult* out);

  /// ExecutePlan/ExistsPlan's core: checks `params` covers the plan's
  /// slots, counts the replay and runs the plan (RunPlan).
  Result<bool> ReplayPlan(const PhysicalPlan& plan,
                          const std::vector<Value>& params,
                          QueryResult* out);

  /// The iterative compiled-plan executor (no replay counting) over
  /// `stores`. With null `params` every filter reads its own literal.
  /// Returns whether the plan yields a row; fills `out` with every row, or
  /// with a null `out` stops at the first one.
  Result<bool> RunPlan(const PhysicalPlan& plan,
                       const std::vector<Value>* params, QueryResult* out,
                       TableStores& stores);
  /// RunPlan over the evaluator's stores, or fresh live stores of `ctx_`.
  Result<bool> RunPlan(const PhysicalPlan& plan,
                       const std::vector<Value>* params, QueryResult* out);

  Database* db_;
  ExecutionContext* ctx_;
  TableStores* stores_;
};

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_QUERY_H_
