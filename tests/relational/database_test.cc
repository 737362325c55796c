#include "relational/database.h"

#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"

namespace ufilter::relational {
namespace {

using fixtures::MakeBookDatabase;
using fixtures::MakeBookSchema;

std::unique_ptr<Database> Db(DeletePolicy policy = DeletePolicy::kCascade) {
  auto db = MakeBookDatabase(policy);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

TEST(DatabaseTest, FixtureCardinalities) {
  auto db = Db();
  EXPECT_EQ((*db->GetTable("publisher"))->live_row_count(), 3u);
  EXPECT_EQ((*db->GetTable("book"))->live_row_count(), 3u);
  EXPECT_EQ((*db->GetTable("review"))->live_row_count(), 2u);
  EXPECT_EQ(db->TotalRows(), 8u);
}

TEST(DatabaseTest, InsertEnforcesNotNull) {
  auto db = Db();
  auto r = db->Insert("book", {Value::String("99"), Value::Null(),
                               Value::String("A01"), Value::Double(10),
                               Value::Int(2000)});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
}

TEST(DatabaseTest, InsertEnforcesCheck) {
  auto db = Db();
  auto r = db->Insert("book", {Value::String("99"), Value::String("T"),
                               Value::String("A01"), Value::Double(-5),
                               Value::Int(2000)});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
}

TEST(DatabaseTest, InsertEnforcesPrimaryKey) {
  auto db = Db();
  auto r = db->Insert("publisher",
                      {Value::String("A01"), Value::String("Other")});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
}

TEST(DatabaseTest, InsertEnforcesUniqueColumn) {
  auto db = Db();
  // pubname is UNIQUE.
  auto r = db->Insert("publisher",
                      {Value::String("Z09"), Value::String("McGraw-Hill Inc.")});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
}

TEST(DatabaseTest, InsertEnforcesForeignKeyExistence) {
  auto db = Db();
  auto r = db->Insert("book", {Value::String("99"), Value::String("T"),
                               Value::String("NOPE"), Value::Double(5),
                               Value::Int(2000)});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
}

TEST(DatabaseTest, NullForeignKeyReferencesNothing) {
  auto db = Db();
  auto r = db->Insert("book", {Value::String("99"), Value::String("T"),
                               Value::Null(), Value::Double(5),
                               Value::Int(2000)});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(DatabaseTest, InsertEnforcesDomain) {
  auto db = Db();
  auto r = db->Insert("book", {Value::String("99"), Value::String("T"),
                               Value::String("A01"), Value::String("cheap"),
                               Value::Int(2000)});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsConstraintViolation());
}

TEST(DatabaseTest, DeleteCascades) {
  auto db = Db();
  // Deleting publisher A01 cascades to 2 books and their 2 reviews.
  auto outcome = db->DeleteWhere(
      "publisher", {{"pubid", CompareOp::kEq, Value::String("A01")}});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->deleted_rows, 1 + 2 + 2);
  EXPECT_EQ((*db->GetTable("book"))->live_row_count(), 1u);
  EXPECT_EQ((*db->GetTable("review"))->live_row_count(), 0u);
}

TEST(DatabaseTest, DeleteSetNullPolicy) {
  auto db = Db(DeletePolicy::kSetNull);
  auto outcome = db->DeleteWhere(
      "publisher", {{"pubid", CompareOp::kEq, Value::String("A01")}});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->deleted_rows, 1);
  EXPECT_EQ(outcome->nulled_rows, 2);
  // Books survive with NULL pubid.
  auto book = *db->GetTable("book");
  EXPECT_EQ(book->live_row_count(), 3u);
  auto rows = book->Find({{"pubid", CompareOp::kEq, Value::String("A01")}},
                         nullptr);
  EXPECT_TRUE(rows.empty());
}

TEST(DatabaseTest, DeleteRestrictPolicyRejectsAndLeavesStateIntact) {
  auto db = Db(DeletePolicy::kRestrict);
  auto outcome = db->DeleteWhere(
      "publisher", {{"pubid", CompareOp::kEq, Value::String("A01")}});
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsConstraintViolation());
  EXPECT_EQ((*db->GetTable("publisher"))->live_row_count(), 3u);
}

TEST(DatabaseTest, DeleteUnreferencedUnderRestrictSucceeds) {
  auto db = Db(DeletePolicy::kRestrict);
  auto outcome = db->DeleteWhere(
      "publisher", {{"pubid", CompareOp::kEq, Value::String("B01")}});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->deleted_rows, 1);
}

TEST(DatabaseTest, RollbackRestoresEverything) {
  auto db = Db();
  size_t mark = db->Begin();
  ASSERT_TRUE(db->DeleteWhere("publisher", {}).ok());  // delete all, cascades
  EXPECT_EQ(db->TotalRows(), 0u);
  db->Rollback(mark);
  EXPECT_EQ(db->TotalRows(), 8u);
  // Rows are found through indexes again after restore.
  auto book = *db->GetTable("book");
  EXPECT_EQ(
      book->Find({{"bookid", CompareOp::kEq, Value::String("98001")}}, nullptr)
          .size(),
      1u);
}

TEST(DatabaseTest, NestedSavepoints) {
  auto db = Db();
  size_t outer = db->Begin();
  ASSERT_TRUE(db->Insert("publisher",
                         {Value::String("X1"), Value::String("New Pub 1")})
                  .ok());
  size_t inner = db->Begin();
  ASSERT_TRUE(db->Insert("publisher",
                         {Value::String("X2"), Value::String("New Pub 2")})
                  .ok());
  db->Rollback(inner);
  EXPECT_EQ((*db->GetTable("publisher"))->live_row_count(), 4u);
  db->Rollback(outer);
  EXPECT_EQ((*db->GetTable("publisher"))->live_row_count(), 3u);
}

TEST(DatabaseTest, UpdateWhereChangesAndChecks) {
  auto db = Db();
  auto n = db->UpdateWhere(
      "book", {{"price", Value::Double(10.0)}},
      {{"bookid", CompareOp::kEq, Value::String("98001")}});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  // CHECK still enforced on update.
  auto bad = db->UpdateWhere(
      "book", {{"price", Value::Double(-1.0)}},
      {{"bookid", CompareOp::kEq, Value::String("98001")}});
  EXPECT_FALSE(bad.ok());
}

TEST(DatabaseTest, UpdateWhereUniqueConflict) {
  auto db = Db();
  auto bad = db->UpdateWhere(
      "publisher", {{"pubname", Value::String("McGraw-Hill Inc.")}},
      {{"pubid", CompareOp::kEq, Value::String("B01")}});
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsConstraintViolation());
}

TEST(DatabaseTest, FindUsesIndexOnKeyColumn) {
  auto db = Db();
  obs::CounterWindow counters(db->registry());
  auto book = *db->GetTable("book");
  auto rows = book->Find({{"bookid", CompareOp::kEq, Value::String("98002")}},
                         &db->counters());
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(counters.Delta("engine_index_lookups"), 1u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 0u);
}

TEST(DatabaseTest, FindScansOnNonIndexedColumn) {
  auto db = Db();
  obs::CounterWindow counters(db->registry());
  auto book = *db->GetTable("book");
  auto rows = book->Find(
      {{"title", CompareOp::kEq, Value::String("Data on the Web")}},
      &db->counters());
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 3u);
}

TEST(DatabaseTest, ForeignKeyToUnindexedColumnsScansTheParent) {
  // FK probes use the index over exactly the key's columns. The child's
  // FK columns always have one; a parent's referenced non-key column has
  // none, so the existence check scans it.
  DatabaseSchema schema;
  TableSchema parent("parent");
  parent.AddColumn("id", ValueType::kInt, true)
      .AddColumn("code", ValueType::kInt)
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(schema.AddTable(std::move(parent)).ok());
  TableSchema child("child");
  child.AddColumn("id", ValueType::kInt, true)
      .AddColumn("code", ValueType::kInt)
      .SetPrimaryKey({"id"})
      .AddForeignKey({{"code"}, "parent", {"code"}, DeletePolicy::kCascade});
  ASSERT_TRUE(schema.AddTable(std::move(child)).ok());
  auto created = Database::Create(std::move(schema));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  Database& db = **created;
  ASSERT_TRUE(db.Insert("parent", {Value::Int(1), Value::Int(10)}).ok());
  ASSERT_TRUE(db.Insert("parent", {Value::Int(2), Value::Int(20)}).ok());

  obs::CounterWindow counters(db.registry());
  ASSERT_TRUE(db.Insert("child", {Value::Int(1), Value::Int(10)}).ok());
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 2u);
  auto orphan = db.Insert("child", {Value::Int(2), Value::Int(11)});
  EXPECT_EQ(orphan.status().message(),
            "FK violation: child -> parent (11) has no referenced row");

  counters.Rebase();
  auto deleted =
      db.DeleteWhere("parent", {{"id", CompareOp::kEq, Value::Int(1)}});
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted->deleted_rows, 2);
  // The statement's key lookup, then the probe of the child's FK index.
  EXPECT_EQ(counters.Delta("engine_index_lookups"), 2u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 0u);
}

TEST(DatabaseTest, TempTablesHaveNoIndexesAndNoFkChecks) {
  auto db = Db();
  TableSchema temp("TAB_book");
  temp.AddColumn("bookid", ValueType::kString);
  auto t = db->CreateTempTable(temp);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db->Insert("TAB_book", {Value::String("98001")}).ok());
  EXPECT_FALSE((*t)->HasIndexOn("bookid"));
  EXPECT_TRUE(db->IsTempTable("TAB_book"));
  ASSERT_TRUE(db->DropTempTable("TAB_book").ok());
  EXPECT_FALSE(db->GetTable("TAB_book").ok());
}

TEST(DatabaseTest, DuplicateTempTableRejected) {
  auto db = Db();
  TableSchema temp("publisher");
  temp.AddColumn("x", ValueType::kInt);
  EXPECT_FALSE(db->CreateTempTable(temp).ok());
}

TEST(SchemaTest, ExtendFollowsCascadeTransitively) {
  auto schema = MakeBookSchema(DeletePolicy::kCascade);
  auto ext = schema.Extend("publisher");
  EXPECT_EQ(ext.size(), 3u);  // publisher, book, review
  ext = schema.Extend("book");
  EXPECT_EQ(ext.size(), 2u);  // book, review
  ext = schema.Extend("review");
  EXPECT_EQ(ext.size(), 1u);
}

TEST(SchemaTest, ExtendStopsAtSetNullableFk) {
  auto schema = MakeBookSchema(DeletePolicy::kSetNull);
  // book.pubid is nullable: deleting a publisher nulls it, the book stays.
  auto ext = schema.Extend("publisher");
  EXPECT_EQ(ext.size(), 1u);
  // review.bookid is NOT NULL (part of PK): SET NULL impossible -> the
  // review must go, so book still extends to review.
  ext = schema.Extend("book");
  EXPECT_EQ(ext.size(), 2u);
}

TEST(SchemaTest, ExtendStopsAtRestrict) {
  auto schema = MakeBookSchema(DeletePolicy::kRestrict);
  EXPECT_EQ(schema.Extend("publisher").size(), 1u);
}

TEST(SchemaTest, UniqueIdentifier) {
  auto schema = MakeBookSchema();
  auto pub = *schema.FindTable("publisher");
  EXPECT_TRUE(pub->IsUniqueIdentifier("pubid"));
  EXPECT_TRUE(pub->IsUniqueIdentifier("pubname"));  // UNIQUE column
  auto review = *schema.FindTable("review");
  // Composite key: no single column identifies a review.
  EXPECT_FALSE(review->IsUniqueIdentifier("bookid"));
  EXPECT_FALSE(review->IsUniqueIdentifier("reviewid"));
}

TEST(SchemaTest, ValidateCatchesDanglingFk) {
  DatabaseSchema schema;
  TableSchema t("a");
  t.AddColumn("x", ValueType::kInt);
  t.AddForeignKey({{"x"}, "missing", {"y"}, DeletePolicy::kCascade});
  ASSERT_TRUE(schema.AddTable(std::move(t)).ok());
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, CreateSqlRendering) {
  auto schema = MakeBookSchema();
  std::string sql = (*schema.FindTable("book"))->ToCreateSql();
  EXPECT_NE(sql.find("PRIMARY KEY (bookid)"), std::string::npos);
  EXPECT_NE(sql.find("FOREIGN KEY (pubid) REFERENCES publisher"),
            std::string::npos);
  EXPECT_NE(sql.find("CHECK (price > 0.00)"), std::string::npos);
}

}  // namespace
}  // namespace ufilter::relational
