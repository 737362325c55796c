#include "relational/query.h"

#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/tpch.h"

namespace ufilter::relational {
namespace {

std::unique_ptr<Database> Db() {
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

TEST(QueryTest, SingleTableFilter) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"b", "title"}};
  q.filters = {{{"b", "price"}, CompareOp::kLt, Value::Double(40.0)}};
  auto r = eval.Execute(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsString(), "TCP/IP Illustrated");
}

TEST(QueryTest, JoinWithRowIds) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}, {"publisher", "p"}};
  q.selects = {{"b", "bookid"}, {"p", "pubname"}};
  q.joins = {{{"b", "pubid"}, CompareOp::kEq, {"p", "pubid"}}};
  auto r = eval.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  // Row ids expose the contributing tuples per FROM entry.
  ASSERT_EQ(r->row_ids[0].size(), 2u);
  const Row* book = (*db->GetTable("book"))->GetRow(r->row_ids[0][0]);
  ASSERT_NE(book, nullptr);
}

TEST(QueryTest, ThreeWayJoinMatchesPaperView) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}, {"publisher", "p"}, {"review", "r"}};
  q.selects = {{"b", "bookid"}, {"r", "reviewid"}};
  q.joins = {{{"b", "pubid"}, CompareOp::kEq, {"p", "pubid"}},
             {{"b", "bookid"}, CompareOp::kEq, {"r", "bookid"}}};
  q.filters = {{{"b", "price"}, CompareOp::kLt, Value::Double(50.0)},
               {{"b", "year"}, CompareOp::kGt, Value::Int(1990)}};
  auto r = eval.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);  // book 98001's two reviews
}

TEST(QueryTest, EmptyResultOnContradiction) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"b", "bookid"}};
  q.filters = {{{"b", "price"}, CompareOp::kGt, Value::Double(50.0)}};
  auto r = eval.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(QueryTest, UnknownAliasRejected) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"zzz", "bookid"}};
  EXPECT_FALSE(eval.Execute(q).ok());
}

TEST(QueryTest, DuplicateAliasRejected) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}, {"review", "b"}};
  EXPECT_FALSE(eval.Execute(q).ok());
}

TEST(QueryTest, IndexDrivenJoinDoesNotScanInnerTable) {
  tpch::TpchOptions options;
  options.scale = 1.0;
  auto db = tpch::MakeDatabase(options);
  ASSERT_TRUE(db.ok());
  QueryEvaluator eval(db->get());
  SelectQuery q;
  q.tables = {{"orders", "o"}, {"lineitem", "l"}};
  q.selects = {{"l", "l_linenumber"}};
  q.filters = {{{"o", "o_orderkey"}, CompareOp::kEq, Value::Int(10)}};
  q.joins = {{{"l", "l_orderkey"}, CompareOp::kEq, {"o", "o_orderkey"}}};
  obs::CounterWindow counters((*db)->registry());
  auto r = eval.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 4u);  // 4 lineitems per order
  // Both accesses are index lookups; nothing is scanned.
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 0u);
  EXPECT_GE(counters.Delta("engine_index_lookups"), 2u);
}

TEST(QueryTest, MaterializeIntoCreatesIndexFreeTempTable) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"b", "bookid"}, {"b", "price"}};
  ASSERT_TRUE(eval.MaterializeInto(q, "TAB_book").ok());
  auto t = db->GetTable("TAB_book");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->live_row_count(), 3u);
  EXPECT_FALSE((*t)->HasIndexOn("bookid"));
  // Inferred column types follow the data.
  EXPECT_EQ((*t)->schema().columns()[1].type, ValueType::kDouble);
}

TEST(QueryTest, ToSqlRendering) {
  SelectQuery q;
  q.tables = {{"book", "b"}, {"publisher", "p"}};
  q.selects = {{"b", "bookid"}};
  q.joins = {{{"b", "pubid"}, CompareOp::kEq, {"p", "pubid"}}};
  q.filters = {{{"b", "price"}, CompareOp::kLt, Value::Double(50.0)}};
  EXPECT_EQ(q.ToSql(),
            "SELECT b.bookid FROM book AS b, publisher AS p WHERE "
            "b.pubid = p.pubid AND b.price < 50.00");
}

TEST(TpchTest, CardinalitiesScale) {
  tpch::TpchOptions options;
  options.scale = 0.5;
  auto db = tpch::MakeDatabase(options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto card = tpch::CardinalitiesFor(0.5);
  EXPECT_EQ((*(*db)->GetTable("region"))->live_row_count(), 5u);
  EXPECT_EQ((*(*db)->GetTable("nation"))->live_row_count(), 25u);
  EXPECT_EQ((*(*db)->GetTable("customer"))->live_row_count(),
            static_cast<size_t>(card.customers));
  EXPECT_EQ((*(*db)->GetTable("orders"))->live_row_count(),
            static_cast<size_t>(card.customers * 10));
  EXPECT_EQ((*(*db)->GetTable("lineitem"))->live_row_count(),
            static_cast<size_t>(card.customers * 40));
}

TEST(TpchTest, DeterministicForSameSeed) {
  tpch::TpchOptions options;
  options.scale = 0.2;
  auto a = tpch::MakeDatabase(options);
  auto b = tpch::MakeDatabase(options);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ca = (*(*a)->GetTable("customer"))->GetRow(0);
  auto cb = (*(*b)->GetTable("customer"))->GetRow(0);
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_TRUE(*ca == *cb);
}

TEST(TpchTest, ForeignKeysConsistent) {
  tpch::TpchOptions options;
  options.scale = 0.1;
  auto db = tpch::MakeDatabase(options);
  ASSERT_TRUE(db.ok());
  // Spot-check: every order's customer exists (insert-time FK enforcement
  // makes this structural; verify a sample via query).
  QueryEvaluator eval(db->get());
  SelectQuery q;
  q.tables = {{"orders", "o"}, {"customer", "c"}};
  q.selects = {{"o", "o_orderkey"}};
  q.joins = {{{"o", "o_custkey"}, CompareOp::kEq, {"c", "c_custkey"}}};
  auto r = eval.Execute(q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), (*(*db)->GetTable("orders"))->live_row_count());
}

}  // namespace
}  // namespace ufilter::relational
