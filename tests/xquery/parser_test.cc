#include "xquery/parser.h"

#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "fixtures/tpch_views.h"

namespace ufilter::xq {
namespace {

TEST(ViewQueryParserTest, ParsesBookView) {
  auto q = ParseViewQuery(fixtures::BookViewQuery());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->root_tag, "BookView");
  ASSERT_EQ(q->flwrs.size(), 2u);

  const Flwr& first = *q->flwrs[0];
  ASSERT_EQ(first.bindings.size(), 2u);
  EXPECT_EQ(first.bindings[0].variable, "book");
  EXPECT_TRUE(first.bindings[0].path.from_document);
  EXPECT_EQ(first.bindings[0].path.steps.size(), 2u);
  EXPECT_EQ(first.bindings[0].path.steps[0], "book");
  ASSERT_EQ(first.conditions.size(), 3u);
  EXPECT_TRUE(first.conditions[0].IsCorrelation());
  EXPECT_FALSE(first.conditions[1].IsCorrelation());
  EXPECT_EQ(first.conditions[1].op, CompareOp::kLt);
  EXPECT_DOUBLE_EQ(first.conditions[1].rhs.literal.AsDouble(), 50.0);

  // RETURN { <book> ... } with a nested FLWR inside.
  ASSERT_EQ(first.contents.size(), 1u);
  ASSERT_EQ(first.contents[0].kind, Content::Kind::kElement);
  const ElementCtor& book = *first.contents[0].element;
  EXPECT_EQ(book.tag, "book");
  ASSERT_EQ(book.children.size(), 5u);  // 3 projections, publisher, FLWR
  EXPECT_EQ(book.children[0].kind, Content::Kind::kProjection);
  EXPECT_EQ(book.children[3].kind, Content::Kind::kElement);
  EXPECT_EQ(book.children[4].kind, Content::Kind::kFlwr);
}

TEST(ViewQueryParserTest, ParsesAllTpchViews) {
  for (const std::string& text :
       {fixtures::VSuccessQuery(), fixtures::VLinearQuery(),
        fixtures::VBushQuery(), fixtures::VFailQuery("region"),
        fixtures::VFailQuery("customer")}) {
    auto q = ParseViewQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
  }
}

TEST(ViewQueryParserTest, BareFlwrGetsDummyRoot) {
  auto q = ParseViewQuery(
      "FOR $b IN document(\"d.xml\")/book/row RETURN { $b/bookid }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->root_tag, "root");
}

TEST(ViewQueryParserTest, Errors) {
  EXPECT_FALSE(ParseViewQuery("<V></V>").ok());          // no FLWR
  EXPECT_FALSE(ParseViewQuery("<V>FOR $x RETURN {}</V>").ok());  // no IN
  EXPECT_FALSE(
      ParseViewQuery("<V>FOR $x IN document(\"d\")/t/row</V>").ok());
  EXPECT_FALSE(ParseViewQuery("<A>FOR $x IN document(\"d\")/t/row RETURN "
                              "{ $x/a }</B>")
                   .ok());  // mismatched root tags
}

TEST(UpdateParserTest, ParsesAllPaperUpdates) {
  for (int u = 1; u <= 13; ++u) {
    auto stmt = ParseUpdate(fixtures::PaperUpdate(u));
    EXPECT_TRUE(stmt.ok()) << "u" << u << ": " << stmt.status().ToString();
  }
}

TEST(UpdateParserTest, InsertPayloadNormalized) {
  auto stmt = ParseUpdate(fixtures::PaperUpdate(4));
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->op, UpdateOpType::kInsert);
  EXPECT_EQ(stmt->target_variable, "root");
  ASSERT_NE(stmt->payload, nullptr);
  EXPECT_EQ(stmt->payload->label(), "book");
  // Quoted payload values are stripped: "98001" -> 98001.
  EXPECT_EQ(stmt->payload->ChildText("bookid"), "98001");
  EXPECT_EQ(stmt->payload->ChildText("title"), "Operating Systems");
}

TEST(UpdateParserTest, DeleteVictimPath) {
  auto stmt = ParseUpdate(fixtures::PaperUpdate(2));
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->op, UpdateOpType::kDelete);
  EXPECT_EQ(stmt->target_variable, "root");
  EXPECT_EQ(stmt->victim.variable, "book");
  ASSERT_EQ(stmt->victim.steps.size(), 1u);
  EXPECT_EQ(stmt->victim.steps[0], "publisher");
  ASSERT_EQ(stmt->conditions.size(), 1u);
  EXPECT_TRUE(stmt->conditions[0].lhs.path.text_fn);
}

TEST(UpdateParserTest, TextFunctionVictim) {
  auto stmt = ParseUpdate(fixtures::PaperUpdate(6));
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->victim.text_fn);
  ASSERT_EQ(stmt->victim.steps.size(), 1u);
  EXPECT_EQ(stmt->victim.steps[0], "bookid");
}

TEST(UpdateParserTest, EqualsBindingForm) {
  // u9 uses `$book = $root/book`.
  auto stmt = ParseUpdate(fixtures::PaperUpdate(9));
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->bindings.size(), 2u);
  EXPECT_EQ(stmt->bindings[1].variable, "book");
  EXPECT_EQ(stmt->bindings[1].path.variable, "root");
}

TEST(UpdateParserTest, ReplaceStatement) {
  auto stmt = ParseUpdate(
      "FOR $book IN document(\"BookView.xml\")/book\n"
      "WHERE $book/bookid/text() = \"98001\"\n"
      "UPDATE $book {\n"
      "  REPLACE $book/price WITH <price>39.99</price>\n"
      "}");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->op, UpdateOpType::kReplace);
  EXPECT_EQ(stmt->victim.steps[0], "price");
  EXPECT_EQ(stmt->payload->TextContent(), "39.99");
}

TEST(UpdateParserTest, Errors) {
  EXPECT_FALSE(ParseUpdate("UPDATE $x { DELETE $x }").ok());  // no FOR
  EXPECT_FALSE(
      ParseUpdate("FOR $x IN document(\"v\") UPDATE $x { }").ok());
  EXPECT_FALSE(
      ParseUpdate("FOR $x IN document(\"v\") UPDATE $x { INSERT }").ok());
  EXPECT_FALSE(ParseUpdate("FOR $x IN document(\"v\") UPDATE $x { INSERT "
                           "<a><b></a> }")
                   .ok());  // malformed payload
}

TEST(UpdateParserTest, PayloadWithPunctuationLexes) {
  auto stmt = ParseUpdate(
      "FOR $b IN document(\"v\")/book UPDATE $b { INSERT "
      "<review><reviewid>001</reviewid>"
      "<comment>Easy read &amp; useful. 5/5 stars!?</comment></review> }");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->payload->ChildText("comment"),
            "Easy read & useful. 5/5 stars!?");
}

TEST(UpdateParserTest, PayloadQuotesAreCharacterData) {
  auto stmt = ParseUpdate(
      "FOR $c IN document(\"V\")/c UPDATE $c { REPLACE $c/n WITH "
      "<n>O'Brien</n>, REPLACE $c/m WITH <m>5\" tall</m> }");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->actions.size(), 2u);
  EXPECT_EQ(stmt->actions[0].payload->TextContent(), "O'Brien");
  EXPECT_EQ(stmt->actions[1].payload->TextContent(), "5\" tall");
}

TEST(UpdateParserTest, LiteralsTakeParameterSlotsInSourceOrder) {
  auto stmt = ParseUpdate(
      "FOR $b IN document(\"v\")/book WHERE $b/price > 10 AND "
      "\"x\" = $b/title UPDATE $b { INSERT <review><id>1</id>"
      "<c>two</c></review>, INSERT <review><id>3</id></review> }");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->conditions[0].rhs.param, 0);
  EXPECT_EQ(stmt->conditions[1].lhs.param, 1);
  EXPECT_EQ(stmt->conditions[0].lhs.param, -1);  // a path
  EXPECT_EQ(stmt->actions[0].payload_param, 2);   // "1", then "two"
  EXPECT_EQ(stmt->actions[1].payload_param, 4);   // "3"
}

TEST(UpdateParserTest, UnclosedPayloadIsAParseError) {
  auto stmt = ParseUpdate(
      "FOR $x IN document(\"v\") UPDATE $x { INSERT <a><b></b> }");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("unterminated XML payload"),
            std::string::npos)
      << stmt.status().ToString();
}

}  // namespace
}  // namespace ufilter::xq
