// Planner unit tests: join-order and access-path selection (inspected both
// structurally on the PhysicalPlan and behaviorally via the engine
// counters), plan replay counters, hash-join rescue of index-free temp
// tables, stale-plan detection, and the bulk-load path of materialized
// probes.
#include "relational/planner.h"

#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/query.h"
#include "relational/tpch.h"

namespace ufilter::relational {
namespace {

std::unique_ptr<Database> BookDb() {
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

std::unique_ptr<Database> TpchDb(double scale) {
  tpch::TpchOptions options;
  options.scale = scale;
  auto db = tpch::MakeDatabase(options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

/// Creates an index-free temp table with one int column `k` holding
/// 0, step, 2*step, ... (count rows).
void MakeIntTemp(Database* db, const std::string& name, int count, int step) {
  TableSchema schema(name);
  schema.AddColumn("k", ValueType::kInt);
  ASSERT_TRUE(db->CreateTempTable(schema).ok());
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    rows.push_back({Value::Int(i * step)});
  }
  ASSERT_TRUE(db->BulkLoadTemp(name, std::move(rows)).ok());
}

TEST(PlannerTest, JoinOrderFollowsEstimatedCardinality) {
  auto db = TpchDb(0.5);
  // FROM lists lineitem first, but orders carries a unique-index equality
  // (estimate 1) and lineitem is then reachable through its non-unique
  // l_orderkey index: the planner must flip the order.
  SelectQuery q;
  q.tables = {{"lineitem", "l"}, {"orders", "o"}};
  q.selects = {{"l", "l_linenumber"}};
  q.filters = {{{"o", "o_orderkey"}, CompareOp::kEq, Value::Int(10)}};
  q.joins = {{{"l", "l_orderkey"}, CompareOp::kEq, {"o", "o_orderkey"}}};
  Planner planner(db.get());
  auto plan = planner.Compile(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->levels.size(), 2u);
  EXPECT_EQ(plan->levels[0].table_pos, 1);  // orders first
  EXPECT_EQ(plan->levels[0].path, AccessPath::kUniqueLookup);
  EXPECT_EQ(plan->levels[1].table_pos, 0);
  EXPECT_EQ(plan->levels[1].path, AccessPath::kIndexLookup);

  obs::CounterWindow counters(db->registry());
  QueryEvaluator eval(db.get());
  auto r = eval.ExecutePlan(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->merged.size(), 4u);  // 4 lineitems per order
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 0u);
  EXPECT_GE(counters.Delta("engine_index_lookups"), 2u);
  EXPECT_EQ(counters.Delta("engine_plan_replays"), 1u);
}

TEST(PlannerTest, TempTableJoinReorderedOntoBaseIndex) {
  // The fig16 shape: a small index-free materialization joined with an
  // indexed base table. FROM order would scan the temp table per orders
  // row; the planner scans the temp table once and drives unique lookups.
  auto db = TpchDb(0.5);
  MakeIntTemp(db.get(), "TAB_ctx", 8, 1);  // o_orderkey 0..7 (1..7 exist)
  SelectQuery q;
  q.tables = {{"orders", "o"}, {"TAB_ctx", "t"}};
  q.selects = {{"o", "o_orderkey"}};
  q.joins = {{{"o", "o_orderkey"}, CompareOp::kEq, {"t", "k"}}};
  Planner planner(db.get());
  auto plan = planner.Compile(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->levels.size(), 2u);
  EXPECT_EQ(plan->levels[0].table_pos, 1);  // temp table scanned once
  EXPECT_EQ(plan->levels[0].path, AccessPath::kScan);
  EXPECT_EQ(plan->levels[1].table_pos, 0);  // orders probed by PK
  EXPECT_EQ(plan->levels[1].path, AccessPath::kUniqueLookup);

  obs::CounterWindow counters(db->registry());
  QueryEvaluator eval(db.get());
  auto r = eval.ExecutePlan(*plan);
  ASSERT_TRUE(r.ok());
  // One scan of the 8-row temp table; orders is never scanned.
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 8u);
  EXPECT_EQ(counters.Delta("engine_index_lookups"), 8u);
}

TEST(PlannerTest, UnindexedEquiJoinUsesHashJoin) {
  // Neither side indexed on the join column (two index-free temp tables):
  // the nested-loop O(n*m) rescan is replaced by one hash build + n probes.
  auto db = BookDb();
  MakeIntTemp(db.get(), "TAB_a", 50, 1);
  MakeIntTemp(db.get(), "TAB_b", 200, 1);
  SelectQuery q;
  q.tables = {{"TAB_a", "a"}, {"TAB_b", "b"}};
  q.selects = {{"a", "k"}};
  q.joins = {{{"a", "k"}, CompareOp::kEq, {"b", "k"}}};
  Planner planner(db.get());
  auto plan = planner.Compile(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->levels.size(), 2u);
  EXPECT_EQ(plan->levels[0].table_pos, 0);  // smaller side scanned
  EXPECT_EQ(plan->levels[0].path, AccessPath::kScan);
  EXPECT_EQ(plan->levels[1].table_pos, 1);  // larger side hash-built once
  EXPECT_EQ(plan->levels[1].path, AccessPath::kHashJoin);

  obs::CounterWindow counters(db->registry());
  QueryEvaluator eval(db.get());
  auto r = eval.ExecutePlan(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->merged.size(), 50u);  // 0..49 match
  EXPECT_EQ(counters.Delta("engine_hash_join_builds"), 1u);
  EXPECT_EQ(counters.Delta("engine_hash_join_probes"), 50u);
  // Outer scan (50) + one-time build scan (200) — not 50 * 200.
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 250u);
}

TEST(PlannerTest, DisjunctiveBranchesCompileToInListUnion) {
  auto db = BookDb();
  SelectQuery base;
  base.tables = {{"book", "b"}};
  base.selects = {{"b", "bookid"}};
  std::vector<std::vector<FilterPredicate>> branches;
  branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98001")}});
  branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98002")}});
  Planner planner(db.get());
  auto plan = planner.CompileDisjunctive(base, branches);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->levels.size(), 1u);
  EXPECT_EQ(plan->levels[0].path, AccessPath::kInListUnion);
  ASSERT_EQ(plan->levels[0].branch_pins.size(), 2u);
}

TEST(PlannerTest, ReplayCountersDistinguishCompileFromReplay) {
  auto db = BookDb();
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"b", "bookid"}};
  QueryEvaluator eval(db.get());
  Planner planner(db.get());
  obs::CounterWindow counters(db->registry());
  auto plan = planner.Compile(q);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(eval.ExecutePlan(*plan).ok());
  ASSERT_TRUE(eval.ExecutePlan(*plan).ok());
  EXPECT_EQ(counters.Delta("engine_plans_compiled"), 1u);
  EXPECT_EQ(counters.Delta("engine_plan_replays"), 2u);
  // An ad-hoc Execute compiles each time and is not a replay.
  ASSERT_TRUE(eval.Execute(q).ok());
  EXPECT_EQ(counters.Delta("engine_plans_compiled"), 2u);
  EXPECT_EQ(counters.Delta("engine_plan_replays"), 2u);
}

TEST(PlannerTest, StalePlanRejectedAfterTempTableReshape) {
  auto db = BookDb();
  MakeIntTemp(db.get(), "TAB_s", 3, 1);
  SelectQuery q;
  q.tables = {{"TAB_s", "t"}};
  q.selects = {{"t", "k"}};
  Planner planner(db.get());
  auto plan = planner.Compile(q);
  ASSERT_TRUE(plan.ok());
  QueryEvaluator eval(db.get());
  ASSERT_TRUE(eval.ExecutePlan(*plan).ok());

  // Same shape after re-creation: the plan stays valid.
  ASSERT_TRUE(db->DropTempTable("TAB_s").ok());
  MakeIntTemp(db.get(), "TAB_s", 5, 2);
  auto replay = eval.ExecutePlan(*plan);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->merged.size(), 5u);

  // Different arity: replay must be rejected, not misread slots.
  ASSERT_TRUE(db->DropTempTable("TAB_s").ok());
  TableSchema wide("TAB_s");
  wide.AddColumn("k", ValueType::kInt);
  wide.AddColumn("extra", ValueType::kString);
  ASSERT_TRUE(db->CreateTempTable(wide).ok());
  EXPECT_FALSE(eval.ExecutePlan(*plan).ok());
}

TEST(PlannerTest, BulkLoadedTempRowsRollBackWithSavepoint) {
  auto db = BookDb();
  size_t mark = db->Begin();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"b", "bookid"}};
  ASSERT_TRUE(eval.MaterializeInto(q, "TAB_m").ok());
  EXPECT_EQ((*db->GetTable("TAB_m"))->live_row_count(), 3u);
  db->Rollback(mark);
  // The bulk-loaded rows are undo-logged: rollback empties the table.
  EXPECT_EQ((*db->GetTable("TAB_m"))->live_row_count(), 0u);
  ASSERT_TRUE(db->DropTempTable("TAB_m").ok());
}

TEST(PlannerTest, BulkLoadTempRejectsBaseTablesAndBadArity) {
  auto db = BookDb();
  EXPECT_FALSE(db->BulkLoadTemp("book", {}).ok());
  MakeIntTemp(db.get(), "TAB_x", 1, 1);
  std::vector<Row> bad;
  bad.push_back({Value::Int(1), Value::Int(2)});
  EXPECT_FALSE(db->BulkLoadTemp("TAB_x", std::move(bad)).ok());
}

TEST(PlannerTest, EstimatesExposeIndexSelectivity) {
  auto db = TpchDb(0.5);
  const Table* lineitem = *db->GetTable("lineitem");
  const Table* orders = *db->GetTable("orders");
  int l_orderkey = lineitem->schema().ColumnIndex("l_orderkey");
  int o_orderkey = orders->schema().ColumnIndex("o_orderkey");
  int l_comment = lineitem->schema().ColumnIndex("l_quantity");
  EXPECT_TRUE(orders->HasUniqueIndexOnColumn(o_orderkey));
  EXPECT_FALSE(lineitem->HasUniqueIndexOnColumn(l_orderkey));
  EXPECT_DOUBLE_EQ(orders->EstimateEqMatches(o_orderkey), 1.0);
  // ~4 lineitems per order through the non-unique FK index.
  EXPECT_NEAR(lineitem->EstimateEqMatches(l_orderkey), 4.0, 0.5);
  // No index: the estimate degrades to the live row count.
  EXPECT_DOUBLE_EQ(lineitem->EstimateEqMatches(l_comment),
                   static_cast<double>(lineitem->live_row_count()));
}

}  // namespace
}  // namespace ufilter::relational
