// Cost-based probe planner: compiles a SelectQuery once into a
// PhysicalPlan — all alias/column names resolved to integer slots, a join
// order chosen greedily by estimated cardinality, and a per-level access
// path picked from {unique/non-unique index lookup, hash join, scan}. The
// compiled plan is replayed by the QueryEvaluator's iterative executor
// with zero name resolution, which is what makes probe checking cheap
// relative to execute-detect-rollback (the paper's whole argument, Figs.
// 13-17): prepared probes compile once and only replay.
//
// The hash-join path is what rescues the outside strategy's temp-table
// joins (the paper's "TAB_book", Section 6): an index-free materialization
// joined against a base table no longer degrades to an O(n*m) nested-loop
// scan — the unindexed side is loaded into a one-shot hash table and probed
// per outer row instead.
#ifndef UFILTER_RELATIONAL_PLANNER_H_
#define UFILTER_RELATIONAL_PLANNER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/database.h"
#include "relational/query.h"

namespace ufilter::relational {

/// How one join level obtains its candidate rows.
enum class AccessPath {
  kUniqueLookup,  ///< equality probe into a unique index (<= 1 candidate)
  kIndexLookup,   ///< equality probe into a non-unique index
  kHashJoin,      ///< one-shot hash table on this (unindexed) equi-join side
  kScan,          ///< full table scan
};

/// A literal filter with every name resolved to slots. `table` is the
/// position in the *original* FROM list, `column` the column index within
/// that table's schema.
struct CompiledFilter {
  int table = -1;
  int column = -1;
  CompareOp op = CompareOp::kEq;
  Value literal;
  int param = -1;  ///< parameter slot (FilterPredicate::param), or -1
};

/// A join predicate with both sides resolved to slots.
struct CompiledJoin {
  int table_a = -1;
  int column_a = -1;
  int table_b = -1;
  int column_b = -1;
  CompareOp op = CompareOp::kEq;
};

/// One level of the chosen join order: which table binds here, how its
/// candidate rows are produced, and which predicates become fully bound
/// once it binds (and are therefore checked here).
struct PlanLevel {
  int table_pos = -1;  ///< position in the original FROM list
  AccessPath path = AccessPath::kScan;

  // Probe key for kUniqueLookup / kIndexLookup / kHashJoin. The key column
  // belongs to *this* table; the probe value is either a literal or the
  // bound value of an earlier level's column.
  int key_column = -1;
  bool key_is_literal = false;
  Value key_literal;
  int key_param = -1;       ///< parameter slot of a literal key, or -1
  int key_src_table = -1;   ///< FROM position of the already-bound side
  int key_src_column = -1;

  /// Residual literal filters on this table (the probe-driving filter, when
  /// any, is excluded: the index probe already verified it).
  std::vector<CompiledFilter> filters;
  /// Join predicates whose *later* side binds at this level. For kHashJoin
  /// the driving join stays here: the hash matches by Value::Hash and the
  /// recheck rules out collisions.
  std::vector<CompiledJoin> joins;

  /// True when this level's table was a *base* table at compile time and
  /// its access path can serve from the columnar cache (kScan: vectorized
  /// selection-vector filtering; kHashJoin: typed-array build). Recorded in
  /// the plan so replays are stable, but the executor still gates at
  /// runtime on the context being snapshot-pinned — only pinned reads see
  /// immutable versions — so one cached plan replays correctly under
  /// pinned and unpinned contexts alike (unpublished/dirty live tables and
  /// temp tables always take the row path).
  bool columnar = false;
};

/// \brief A compiled physical plan: replayable any number of times with
/// zero name resolution. Tables are re-resolved by name per execution (temp
/// tables may be recreated between runs); `table_arities` guards against
/// replaying a plan against a structurally different re-creation.
struct PhysicalPlan {
  std::vector<std::string> table_names;   ///< original FROM order
  std::vector<size_t> table_arities;      ///< column counts at compile time
  std::vector<std::string> column_names;  ///< "alias.column" output header
  /// Output projection: (FROM position, column index) per select.
  std::vector<std::pair<int, int>> selects;
  std::vector<PlanLevel> levels;          ///< chosen join order
  /// Parameter slots the plan reads (highest slot + 1); ExecutePlan must
  /// bind at least this many values.
  size_t param_count = 0;
};

/// \brief Compiles SPJ queries into physical plans against a Database.
///
/// Join order is greedy by estimated cardinality given the already-placed
/// tables: unique-index equality => 1, non-unique index => the average
/// bucket (live rows / distinct keys), else live_row_count. No estimate
/// reads a filter's literal, so a plan compiled for one value of a
/// parameter is the plan for every value. Access paths are picked per
/// level in that cost order, falling back to hash join (equi-join to a
/// bound table with no index on this side), then scan.
class Planner {
 public:
  /// Plans against `db`'s base tables plus `ctx`'s temp tables; a null
  /// `ctx` means the database's root context.
  explicit Planner(Database* db, ExecutionContext* ctx = nullptr)
      : db_(db), ctx_(ctx != nullptr ? ctx : db->root_context()) {}

  /// Compiles a conjunctive query.
  Result<PhysicalPlan> Compile(const SelectQuery& query);

 private:
  Database* db_;
  ExecutionContext* ctx_;
};

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_PLANNER_H_
