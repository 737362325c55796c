// Multi-action UPDATE blocks (the full Tatarinov-style update language):
// several comma-separated operations per statement, checked and applied
// atomically.
#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "ufilter/checker.h"
#include "ufilter/xml_apply.h"
#include "view/diff.h"
#include "xquery/parser.h"

namespace ufilter {
namespace {

using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;

class MultiActionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto uf = UFilter::Create(db_.get(), fixtures::BookViewQuery());
    ASSERT_TRUE(uf.ok());
    uf_ = std::move(*uf);
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<UFilter> uf_;
};

TEST_F(MultiActionTest, ParserSplitsActions) {
  auto stmt = xq::ParseUpdate(
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98001\" UPDATE $book { DELETE $book/review, INSERT "
      "<review><reviewid>009</reviewid><comment>new</comment></review> }");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->actions.size(), 2u);
  EXPECT_EQ(stmt->actions[0].op, xq::UpdateOpType::kDelete);
  EXPECT_EQ(stmt->actions[1].op, xq::UpdateOpType::kInsert);
  // Mirrors reflect the first action.
  EXPECT_EQ(stmt->op, xq::UpdateOpType::kDelete);
}

TEST_F(MultiActionTest, DeleteTheNInsertExecutesAtomically) {
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98001\" UPDATE $book { DELETE $book/review, INSERT "
      "<review><reviewid>009</reviewid><comment>replacement</comment>"
      "</review> }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.rows_affected, 3);  // 2 deletes + 1 insert
  auto review = db_->GetTable("review");
  EXPECT_EQ((*review)->live_row_count(), 1u);
}

TEST_F(MultiActionTest, RejectionOfAnyActionRollsBackAll) {
  size_t rows_before = db_->TotalRows();
  // First action fine (delete reviews), second action untranslatable
  // (delete publisher) -> nothing applied.
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98001\" UPDATE $book { DELETE $book/review, DELETE "
      "$book/publisher }");
  EXPECT_EQ(r.outcome, CheckOutcome::kUntranslatable) << r.Describe();
  EXPECT_EQ(db_->TotalRows(), rows_before);
}

TEST_F(MultiActionTest, RectangleRuleHoldsForMultiAction) {
  const std::string text =
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98001\" UPDATE $book { DELETE $book/review, INSERT "
      "<review><reviewid>009</reviewid><comment>x</comment></review> }";
  auto stmt = xq::ParseUpdate(text);
  ASSERT_TRUE(stmt.ok());
  auto expected = uf_->MaterializeView();
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(check::ApplyUpdateToXml(expected->get(), *stmt).ok());
  CheckReport r = uf_->Check(text);
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  auto actual = uf_->MaterializeView();
  ASSERT_TRUE(actual.ok());
  auto diff = view::FirstDifference(**expected, **actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_F(MultiActionTest, DryRunMultiActionRollsBack) {
  size_t rows_before = db_->TotalRows();
  check::CheckOptions options;
  options.apply = false;
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98001\" UPDATE $book { DELETE $book/review, INSERT "
      "<review><reviewid>009</reviewid><comment>x</comment></review> }",
      options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(db_->TotalRows(), rows_before);
}

TEST_F(MultiActionTest, ConditionsAggregateAcrossActions) {
  // Two conditionally translatable deletes in one block.
  CheckReport r = uf_->Check(
      "FOR $root IN document(\"v\"), $book = $root/book WHERE "
      "$book/price > 40.00 UPDATE $root { DELETE $book }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted);
  EXPECT_EQ(r.condition, "translation minimization");
}

TEST_F(MultiActionTest, SecondActionSeesFirstActionsEffect) {
  // Insert a review, then delete all reviews of the same book: the freshly
  // inserted review must be gone too (sequential semantics).
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98003\" UPDATE $book { INSERT <review><reviewid>009</reviewid>"
      "<comment>x</comment></review>, DELETE $book/review }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  auto review = db_->GetTable("review");
  auto rows = (*review)->Find(
      {{"bookid", CompareOp::kEq, Value::String("98003")}}, nullptr);
  EXPECT_TRUE(rows.empty());
}

}  // namespace
}  // namespace ufilter
