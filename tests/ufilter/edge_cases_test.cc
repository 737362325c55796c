// Edge cases and failure injection across the pipeline: malformed inputs,
// engine-error propagation, replace end-to-end, DOT export, dry-run modes.
#include <gtest/gtest.h>

#include "asg/dot.h"
#include "fixtures/bookdb.h"
#include "relational/sqlgen.h"
#include "ufilter/checker.h"
#include "ufilter/xml_apply.h"
#include "view/diff.h"
#include "xquery/parser.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::Translatability;
using check::UFilter;

class EdgeCasesTest : public ::testing::Test {
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

TEST_F(EdgeCasesTest, ViewCompilationRejectsBrokenQueries) {
  EXPECT_FALSE(UFilter::Create(db_.get(), "not a query").ok());
  EXPECT_FALSE(
      UFilter::Create(db_.get(),
                      "<V>FOR $x IN document(\"d\")/ghost/row RETURN { "
                      "$x/a }</V>")
          .ok());
  // Aggregates are outside the supported fragment and fail at parse time.
  EXPECT_FALSE(UFilter::Create(db_.get(),
                               "<V>FOR $x IN document(\"d\")/book/row "
                               "RETURN { count($x) }</V>")
                   .ok());
}

TEST_F(EdgeCasesTest, ReplaceReviewElementEndToEnd) {
  const std::string text =
      "FOR $book IN document(\"v\")/book, $review IN $book/review WHERE "
      "$review/reviewid/text() = \"001\" UPDATE $book { REPLACE $review "
      "WITH <review><reviewid>001</reviewid>"
      "<comment>rewritten</comment></review> }";
  auto stmt = xq::ParseUpdate(text);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto expected = uf_->MaterializeView();
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(check::ApplyUpdateToXml(expected->get(), *stmt).ok());
  CheckReport r = uf_->Check(text);
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  auto actual = uf_->MaterializeView();
  ASSERT_TRUE(actual.ok());
  // The element moves to the end of the book's children under XML-apply
  // semantics; relationally it keeps its position (ordered by row id).
  // Compare content sets instead of exact order: both views contain the
  // rewritten comment exactly once.
  auto count_comments = [](const xml::Node& root, const std::string& text) {
    int n = 0;
    std::vector<const xml::Node*> stack = {&root};
    while (!stack.empty()) {
      const xml::Node* node = stack.back();
      stack.pop_back();
      if (node->is_element() && node->label() == "comment" &&
          node->TextContent() == text) {
        ++n;
      }
      for (const auto& c : node->children()) stack.push_back(c.get());
    }
    return n;
  };
  EXPECT_EQ(count_comments(**actual, "rewritten"), 1);
  EXPECT_EQ(count_comments(**actual, "A good book on network."), 0);
}

TEST_F(EdgeCasesTest, ReplaceLeafValueEndToEnd) {
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book, $review IN $book/review WHERE "
      "$review/reviewid/text() = \"002\" UPDATE $book { REPLACE "
      "$review/comment WITH <comment>terse</comment> }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  auto review = db_->GetTable("review");
  auto rows = (*review)->Find(
      {{"reviewid", CompareOp::kEq, Value::String("002")}}, nullptr);
  ASSERT_EQ(rows.size(), 1u);
  int c = (*review)->schema().ColumnIndex("comment");
  EXPECT_EQ((*(*review)->GetRow(rows[0]))[static_cast<size_t>(c)].AsString(),
            "terse");
}

TEST_F(EdgeCasesTest, ReplaceOnMissingVictimGivesZeroTupleWarning) {
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
      "\"98003\" UPDATE $book { REPLACE $book/review WITH "
      "<review><reviewid>001</reviewid><comment>x</comment></review> }");
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_TRUE(r.zero_tuple_warning);
}

TEST_F(EdgeCasesTest, SkippingDataCheckStopsAfterStar) {
  CheckOptions options;
  options.run_data_check = false;
  CheckReport r = uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted);
  EXPECT_TRUE(r.translation.empty());  // nothing was translated/applied
  EXPECT_EQ(r.rows_affected, 0);
  EXPECT_EQ((*db_->GetTable("review"))->live_row_count(), 2u);
}

TEST_F(EdgeCasesTest, ProbesAreReportedForAudit) {
  CheckReport r = uf_->Check(fixtures::PaperUpdate(13));
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted);
  ASSERT_FALSE(r.probes.empty());
  EXPECT_NE(r.probes[0].find("SELECT"), std::string::npos);
}

TEST_F(EdgeCasesTest, DotExportContainsMarksAndEdges) {
  std::string dot = asg::ViewAsgToDot(uf_->view_asg());
  EXPECT_NE(dot.find("digraph ViewASG"), std::string::npos);
  EXPECT_NE(dot.find("unsafe-delete"), std::string::npos);
  EXPECT_NE(dot.find("UCB={book,publisher}"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  std::string base = asg::BaseAsgToDot(uf_->base_asg());
  EXPECT_NE(base.find("publisher -> book"), std::string::npos);
  EXPECT_NE(base.find("book -> review"), std::string::npos);
  // publisher -> review is transitive, not direct.
  EXPECT_EQ(base.find("publisher -> review"), std::string::npos);
}

TEST_F(EdgeCasesTest, EmptyViewStillChecksInserts) {
  // Wipe the data; schema-level checks are unaffected, context checks fire.
  ASSERT_TRUE(db_->DeleteWhere("publisher", {}).ok());
  ASSERT_EQ(db_->TotalRows(), 0u);
  CheckReport r = uf_->Check(fixtures::PaperUpdate(13));
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
  // And a root-anchored insert into the (empty) reduced view still works.
  auto db2 = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db2.ok());
  ASSERT_TRUE((*db2)->DeleteWhere("publisher", {}).ok());
  auto uf2 =
      UFilter::Create(db2->get(), fixtures::BookViewNoRepublishQuery());
  ASSERT_TRUE(uf2.ok());
  CheckReport r2 = (*uf2)->Check(
      "FOR $root IN document(\"v\") UPDATE $root { INSERT "
      "<book><bookid>\"1\"</bookid><title>\"T\"</title><price>9.00</price>"
      "<publisher><pubid>N1</pubid><pubname>New</pubname></publisher>"
      "</book> }");
  EXPECT_EQ(r2.outcome, CheckOutcome::kExecuted) << r2.Describe();
  EXPECT_EQ((*db2)->TotalRows(), 2u);
}

TEST_F(EdgeCasesTest, WhitespaceAndCommentsInUpdates) {
  CheckReport r = uf_->Check(
      "  FOR   $book   IN document(\"v\")/book\n\n WHERE $book/price <"
      " 40.00\nUPDATE $book {\n\n  DELETE $book/review\n}\n  ");
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
}

TEST_F(EdgeCasesTest, GarbageInputsNeverCrash) {
  for (const char* garbage :
       {"", "FOR", "FOR $x", "FOR $x IN", "<<><>>", "UPDATE { }",
        "FOR $x IN document(\"v\")/book UPDATE $x {",
        "FOR $x IN document(\"v\")/book UPDATE $x { DELETE }",
        "FOR $x IN document(\"v\")/book UPDATE $x { INSERT <a> }",
        "\xff\xfe\x00garbage", "$$$", "))) {{{"}) {
    CheckReport r = uf_->Check(garbage);
    EXPECT_EQ(r.outcome, CheckOutcome::kInvalid) << garbage;
  }
}

TEST_F(EdgeCasesTest, PredicateOnNestedReviewLeaf) {
  // Predicate inside the nested scope (review) while deleting the review.
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book, $review IN $book/review WHERE "
      "$review/reviewid/text() = \"002\" UPDATE $book { DELETE $review }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.rows_affected, 1);
  EXPECT_EQ((*db_->GetTable("review"))->live_row_count(), 1u);
}

TEST_F(EdgeCasesTest, InsertPerMatchingContext) {
  // No bookid filter: the insert applies to every book in the view; the
  // translation dedupes per anchor but reviewids collide on the second
  // book only if it already has 001 — here both get fresh rows.
  CheckReport r = uf_->Check(
      "FOR $book IN document(\"v\")/book WHERE $book/price > 1.00 UPDATE "
      "$book { INSERT <review><reviewid>777</reviewid>"
      "<comment>bulk</comment></review> }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.rows_affected, 2);  // one per in-view book
}

TEST_F(EdgeCasesTest, CompiledViewIsReusableAcrossManyChecks) {
  for (int i = 0; i < 50; ++i) {
    CheckReport r = uf_->Check(fixtures::PaperUpdate(12));
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted);
  }
  // Undo log does not leak across successful checks with apply=true...
  // (zero-tuple updates translate to nothing).
  EXPECT_EQ(db_->undo_log_size(), 0u);
}

// Apostrophes and lone double quotes are XML character data in a payload:
// each spelling must get the verdict and translation of its entity
// spelling, on a fresh instance each.
TEST(PayloadQuotesTest, RawQuotesCheckLikeTheirEntitySpelling) {
  const std::string review =
      "FOR $book IN document(\"BookView.xml\")/book\n"
      "WHERE $book/title/text() = \"Data on the Web\"\n"
      "UPDATE $book {\n  INSERT\n  <review><reviewid>004</reviewid>"
      "<comment>COMMENT</comment></review>\n}";
  auto with = [](std::string text, const std::string& from,
                 const std::string& to) {
    size_t pos = text.find(from);
    EXPECT_NE(pos, std::string::npos);
    text.replace(pos, from.size(), to);
    return text;
  };
  const std::string two_actions =
      "FOR $book IN document(\"BookView.xml\")/book\n"
      "WHERE $book/title/text() = \"Data on the Web\"\n"
      "UPDATE $book {\n  INSERT <review><reviewid>005</reviewid>"
      "<comment>FIRST</comment></review>,\n  INSERT <review><reviewid>006"
      "</reviewid><comment>SECOND</comment></review>\n}";
  const std::pair<std::string, std::string> cases[] = {
      {with(review, "COMMENT", "O'Brien's pick"),
       with(review, "COMMENT", "O&apos;Brien&apos;s pick")},
      {with(review, "COMMENT", "a 5\" stack"),
       with(review, "COMMENT", "a 5&quot; stack")},
      {fixtures::PaperUpdate(4),
       with(fixtures::PaperUpdate(4), "\"98001\"", "&quot;98001&quot;")},
      {with(with(two_actions, "FIRST", "it's one"), "SECOND", "it's two"),
       with(with(two_actions, "FIRST", "it&apos;s one"), "SECOND",
            "it&apos;s two")},
  };
  CheckOptions dry;
  dry.apply = false;
  auto check = [&](const std::string& text) {
    auto db = fixtures::MakeBookDatabase();
    EXPECT_TRUE(db.ok());
    auto uf = UFilter::Create(db->get(), fixtures::BookViewQuery());
    EXPECT_TRUE(uf.ok());
    return (*uf)->Check(text, dry);
  };
  for (const auto& [raw, escaped] : cases) {
    CheckReport got = check(raw);
    CheckReport want = check(escaped);
    EXPECT_EQ(got.outcome, want.outcome) << raw << "\n" << got.Describe();
    EXPECT_EQ(got.error.ToString(), want.error.ToString()) << raw;
    EXPECT_EQ(relational::UpdateSequenceToSql(got.translation),
              relational::UpdateSequenceToSql(want.translation))
        << raw;
    EXPECT_EQ(got.rows_affected, want.rows_affected) << raw;
  }
  // The raw apostrophe reaches the translation as written.
  EXPECT_NE(relational::UpdateSequenceToSql(check(cases[0].first).translation)
                .find("Brien"),
            std::string::npos);
}

}  // namespace
}  // namespace ufilter
