// Multi-predicate (OR-of-branches) probe support: one merged query must
// return the union of its branches' rows with a correct per-branch
// demultiplexing map, and keep index access when every branch pins an
// indexed column.
#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/query.h"

namespace ufilter::relational {
namespace {

class DisjunctiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  static SelectQuery BookQuery() {
    SelectQuery q;
    q.tables.push_back({"book", "b"});
    q.selects.push_back({"b", "bookid"});
    q.selects.push_back({"b", "price"});
    return q;
  }

  std::unique_ptr<Database> db_;
};

TEST_F(DisjunctiveTest, DemultiplexesBranches) {
  DisjunctiveQuery dq;
  dq.base = BookQuery();
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98001")}});
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98003")}});
  QueryEvaluator evaluator(db_.get());
  auto result = evaluator.ExecuteDisjunctive(dq);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->merged.size(), 2u);
  ASSERT_EQ(result->branch_rows.size(), 2u);
  ASSERT_EQ(result->branch_rows[0].size(), 1u);
  ASSERT_EQ(result->branch_rows[1].size(), 1u);
  QueryResult first = result->Extract(0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first.rows[0][0].AsString(), "98001");
  QueryResult second = result->Extract(1);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.rows[0][0].AsString(), "98003");
}

TEST_F(DisjunctiveTest, RowCanBelongToSeveralBranches) {
  DisjunctiveQuery dq;
  dq.base = BookQuery();
  // Branch 0: price > 40 (98002, 98003); branch 1: bookid = 98003.
  dq.branches.push_back(
      {{{"b", "price"}, CompareOp::kGt, Value::Double(40.0)}});
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98003")}});
  QueryEvaluator evaluator(db_.get());
  auto result = evaluator.ExecuteDisjunctive(dq);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->merged.size(), 2u);  // union, not concatenation
  EXPECT_EQ(result->branch_rows[0].size(), 2u);
  EXPECT_EQ(result->branch_rows[1].size(), 1u);
}

TEST_F(DisjunctiveTest, UsesIndexUnionWhenEveryBranchPinsKey) {
  DisjunctiveQuery dq;
  dq.base = BookQuery();
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98001")}});
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98002")}});
  obs::CounterWindow counters(db_->registry());
  QueryEvaluator evaluator(db_.get());
  auto result = evaluator.ExecuteDisjunctive(dq);
  ASSERT_TRUE(result.ok());
  // IN-list path, no table scan.
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 0u);
  EXPECT_GE(counters.Delta("engine_index_lookups"), 2u);
  EXPECT_EQ(counters.Delta("engine_queries_executed"), 1u);
  EXPECT_EQ(counters.Delta("engine_batch_queries_executed"), 1u);
  EXPECT_EQ(counters.Delta("engine_batch_branches_merged"), 2u);
}

TEST_F(DisjunctiveTest, FallsBackToScanWhenABranchHasNoIndexedEquality) {
  DisjunctiveQuery dq;
  dq.base = BookQuery();
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98001")}});
  dq.branches.push_back(
      {{{"b", "price"}, CompareOp::kGt, Value::Double(40.0)}});
  obs::CounterWindow counters(db_->registry());
  QueryEvaluator evaluator(db_.get());
  auto result = evaluator.ExecuteDisjunctive(dq);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(counters.Delta("engine_rows_scanned"), 0u);
  EXPECT_EQ(result->branch_rows[0].size(), 1u);
  EXPECT_EQ(result->branch_rows[1].size(), 2u);
}

TEST_F(DisjunctiveTest, ToSqlRendersOrOfConjunctions) {
  DisjunctiveQuery dq;
  dq.base = BookQuery();
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98001")}});
  dq.branches.push_back(
      {{{"b", "bookid"}, CompareOp::kEq, Value::String("98003")}});
  std::string sql = dq.ToSql();
  EXPECT_NE(sql.find(" OR "), std::string::npos) << sql;
  EXPECT_NE(sql.find("b.bookid = '98001'"), std::string::npos) << sql;
}

TEST_F(DisjunctiveTest, PlainExecuteMatchesSingleBranch) {
  SelectQuery q = BookQuery();
  q.filters.push_back(
      {{"b", "bookid"}, CompareOp::kEq, Value::String("98001")});
  QueryEvaluator evaluator(db_.get());
  auto plain = evaluator.Execute(q);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(plain->size(), 1u);
  EXPECT_EQ(plain->rows[0][0].AsString(), "98001");
}

}  // namespace
}  // namespace ufilter::relational
