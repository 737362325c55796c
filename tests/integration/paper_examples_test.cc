// End-to-end reproduction of the paper's worked examples: every update
// u1..u13 of Figs. 4 and 10 must land in the verdict class the paper gives
// it, and executed updates must produce exactly the expected view change
// (Definition 1's rectangle rule).
#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "ufilter/blind.h"
#include "ufilter/checker.h"
#include "ufilter/xml_apply.h"
#include "view/diff.h"
#include "xml/writer.h"
#include "xquery/parser.h"

namespace ufilter {
namespace {

using check::CheckOutcome;
using check::CheckOptions;
using check::CheckReport;
using check::Translatability;
using check::UFilter;

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto uf = UFilter::Create(db_.get(), fixtures::BookViewQuery());
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    uf_ = std::move(*uf);
  }

  CheckReport Check(int update, CheckOptions options = {}) {
    return uf_->Check(fixtures::PaperUpdate(update), options);
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<UFilter> uf_;
};

TEST_F(PaperExamplesTest, U1InvalidNotNullAndCheck) {
  CheckReport r = Check(1);
  EXPECT_EQ(r.outcome, CheckOutcome::kInvalid) << r.Describe();
  EXPECT_TRUE(r.error.IsInvalidUpdate());
}

TEST_F(PaperExamplesTest, U2UntranslatablePublisherDelete) {
  CheckReport r = Check(2);
  EXPECT_EQ(r.outcome, CheckOutcome::kUntranslatable) << r.Describe();
}

TEST_F(PaperExamplesTest, U3DataConflictBookNotInView) {
  CheckReport r = Check(3);
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
}

TEST_F(PaperExamplesTest, U4RejectedKeyExists) {
  // With the full BookView (publisher republished under the root) the book
  // insert is already rejected by STAR (Rule 3); the paper also calls u4
  // "not translatable".
  CheckReport r = Check(4);
  EXPECT_EQ(r.outcome, CheckOutcome::kUntranslatable) << r.Describe();
}

TEST_F(PaperExamplesTest, U4DataConflictOnReducedView) {
  // Without the republished branch the insert is schema-safe and the key
  // conflict is caught by the step-3 update-point check instead.
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::BookViewNoRepublishQuery());
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  CheckReport r = (*uf)->Check(fixtures::PaperUpdate(4));
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
}

TEST_F(PaperExamplesTest, U5InvalidPredicateOverlap) {
  CheckReport r = Check(5);
  EXPECT_EQ(r.outcome, CheckOutcome::kInvalid) << r.Describe();
}

TEST_F(PaperExamplesTest, U6InvalidKeyTextDelete) {
  CheckReport r = Check(6);
  EXPECT_EQ(r.outcome, CheckOutcome::kInvalid) << r.Describe();
}

TEST_F(PaperExamplesTest, U7InvalidMissingPublisher) {
  CheckReport r = Check(7);
  EXPECT_EQ(r.outcome, CheckOutcome::kInvalid) << r.Describe();
}

TEST_F(PaperExamplesTest, U8UnconditionalReviewDelete) {
  CheckReport r = Check(8);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kUnconditionallyTranslatable);
  // Book 98001 ($37) has two reviews; both go away.
  EXPECT_EQ(r.rows_affected, 2) << r.Describe();
}

TEST_F(PaperExamplesTest, U9ConditionalBookDelete) {
  CheckReport r = Check(9);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kConditionallyTranslatable);
  EXPECT_EQ(r.condition, "translation minimization");
  // Book 98003 ($48) is deleted; its publisher A01 is still referenced by
  // book 98001 and must survive (minimization).
  auto publisher = db_->GetTable("publisher");
  ASSERT_TRUE(publisher.ok());
  EXPECT_EQ((*publisher)->live_row_count(), 3u);
  auto book = db_->GetTable("book");
  ASSERT_TRUE(book.ok());
  EXPECT_EQ((*book)->live_row_count(), 2u);
}

TEST_F(PaperExamplesTest, U10UntranslatablePublisherDelete) {
  CheckReport r = Check(10);
  EXPECT_EQ(r.outcome, CheckOutcome::kUntranslatable) << r.Describe();
}

TEST_F(PaperExamplesTest, U11DataConflictBookNotInView) {
  CheckReport r = Check(11);
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
}

TEST_F(PaperExamplesTest, U12ZeroTuplesWarning) {
  CheckReport r = Check(12);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_TRUE(r.zero_tuple_warning);
  EXPECT_EQ(r.rows_affected, 0);
}

TEST_F(PaperExamplesTest, U13TranslatedReviewInsert) {
  CheckReport r = Check(13);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.rows_affected, 1);
  // The probe supplied bookid 98003 for the translated INSERT (the paper's
  // U1 statement).
  ASSERT_EQ(r.translation.size(), 1u);
  EXPECT_EQ(r.translation[0].table, "review");
  EXPECT_EQ(r.translation[0].values.at("bookid").AsString(), "98003");
}

// Executed updates must satisfy the rectangle rule: the view after the
// translated update equals the view-side application of the update.
TEST_F(PaperExamplesTest, RectangleRuleHoldsForExecutedUpdates) {
  for (int u : {8, 9, 12, 13}) {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok());
    auto uf = UFilter::Create(db->get(), fixtures::BookViewQuery());
    ASSERT_TRUE(uf.ok());
    auto before = (*uf)->MaterializeView();
    ASSERT_TRUE(before.ok());
    auto stmt = xq::ParseUpdate(fixtures::PaperUpdate(u));
    ASSERT_TRUE(stmt.ok()) << "u" << u << ": " << stmt.status().ToString();
    auto applied = check::ApplyUpdateToXml(before->get(), *stmt);
    ASSERT_TRUE(applied.ok());

    CheckReport r = (*uf)->Check(fixtures::PaperUpdate(u));
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted)
        << "u" << u << ": " << r.Describe();
    auto after = (*uf)->MaterializeView();
    ASSERT_TRUE(after.ok());
    auto diff = view::FirstDifference(**before, **after);
    EXPECT_FALSE(diff.has_value())
        << "u" << u << " side effect: " << *diff << "\nexpected:\n"
        << xml::ToString(**before) << "\nactual:\n"
        << xml::ToString(**after);
  }
}

// The blind baseline detects (and rolls back) exactly the updates U-Filter
// rejects at step 2, but only after paying for execution + materialization.
TEST_F(PaperExamplesTest, BlindBaselineDetectsU9SideEffectFreedom) {
  auto stmt = xq::ParseUpdate(fixtures::PaperUpdate(10));
  ASSERT_TRUE(stmt.ok());
  auto blind = check::BlindExecute(uf_.get(), *stmt);
  ASSERT_TRUE(blind.ok()) << blind.status().ToString();
  EXPECT_TRUE(blind->side_effect);  // publisher delete kills the book too
  // The database must be unchanged after rollback.
  auto publisher = db_->GetTable("publisher");
  EXPECT_EQ((*publisher)->live_row_count(), 3u);
}

TEST_F(PaperExamplesTest, StrategiesAgreeOnPaperUpdates) {
  using check::DataCheckStrategy;
  for (DataCheckStrategy s : {DataCheckStrategy::kInternal,
                              DataCheckStrategy::kHybrid,
                              DataCheckStrategy::kOutside}) {
    for (int u = 1; u <= 13; ++u) {
      auto db = fixtures::MakeBookDatabase();
      ASSERT_TRUE(db.ok());
      auto uf = UFilter::Create(db->get(), fixtures::BookViewQuery());
      ASSERT_TRUE(uf.ok());
      CheckOptions options;
      options.strategy = s;
      CheckReport r = (*uf)->Check(fixtures::PaperUpdate(u), options);
      CheckOutcome expected;
      switch (u) {
        case 1:
        case 5:
        case 6:
        case 7:
          expected = CheckOutcome::kInvalid;
          break;
        case 2:
        case 4:
        case 10:
          expected = CheckOutcome::kUntranslatable;
          break;
        case 3:
        case 11:
          expected = CheckOutcome::kDataConflict;
          break;
        default:
          expected = CheckOutcome::kExecuted;
      }
      EXPECT_EQ(r.outcome, expected)
          << "u" << u << " strategy " << check::DataCheckStrategyName(s)
          << ": " << r.Describe();
    }
  }
}

}  // namespace
}  // namespace ufilter
