// Literal lifting: the plan-cache key (an update's shape) must be
// insensitive to insignificant whitespace and to literal values, and
// nothing else; the lifted literals must keep every byte.
#include "xquery/normalize.h"

#include <gtest/gtest.h>

namespace ufilter::xq {
namespace {

LiftedUpdate Lift(const std::string& text) {
  LiftedUpdate lifted;
  Status st = LiftUpdate(text, &lifted);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return lifted;
}

TEST(NormalizeTest, CollapsesWhitespaceRuns) {
  EXPECT_EQ(NormalizeUpdateText("FOR   $b \t IN\n\n  doc"),
            "FOR $b IN doc");
}

TEST(NormalizeTest, TrimsEnds) {
  EXPECT_EQ(NormalizeUpdateText("  \n DELETE $b \n  "), "DELETE $b");
}

TEST(NormalizeTest, WhitespaceVariantsShareOneTemplate) {
  const std::string compact =
      "FOR $book IN document(\"BookView.xml\")/book "
      "WHERE $book/price < 40.00 UPDATE $book { DELETE $book/review }";
  const std::string sprawling =
      "FOR $book IN document(\"BookView.xml\")/book\n"
      "WHERE   $book/price < 40.00\n"
      "UPDATE $book {\n  DELETE $book/review\n}";
  EXPECT_EQ(NormalizeUpdateText(compact), NormalizeUpdateText(sprawling));
  EXPECT_EQ(HashUpdateTemplate(NormalizeUpdateText(compact)),
            HashUpdateTemplate(NormalizeUpdateText(sprawling)));
}

TEST(NormalizeTest, StringLiteralsArePreservedByteForByte) {
  // Whitespace inside quotes is part of the value: the two updates share a
  // shape, and each keeps its own bytes as the parameter.
  const std::string a = "WHERE $b/title/text() = \"Data on the Web\"";
  const std::string b = "WHERE $b/title/text() = \"Data on  the Web\"";
  LiftedUpdate la = Lift(a);
  LiftedUpdate lb = Lift(b);
  EXPECT_EQ(la.shape, "WHERE $b/title/text() = #s");
  EXPECT_EQ(la.shape, lb.shape);
  ASSERT_EQ(la.literals.size(), 1u);
  ASSERT_EQ(lb.literals.size(), 1u);
  EXPECT_EQ(la.literals[0].cls, LiteralClass::kString);
  EXPECT_EQ(la.literals[0].text, "Data on the Web");
  EXPECT_EQ(lb.literals[0].text, "Data on  the Web");
}

TEST(NormalizeTest, SingleQuotedLiteralsArePreservedToo) {
  const std::string a = "WHERE $b/title/text() = 'Data on the Web'";
  const std::string b = "WHERE $b/title/text() = 'Data on  the Web'";
  EXPECT_EQ(Lift(a).shape, Lift(b).shape);
  EXPECT_EQ(Lift(b).literals[0].text, "Data on  the Web");
  // A double quote inside a single-quoted literal does not open a string.
  LiftedUpdate lifted = Lift("WHERE $b/t = 'say \"hi\"'   DELETE  $b");
  EXPECT_EQ(lifted.shape, "WHERE $b/t = #s DELETE $b");
  ASSERT_EQ(lifted.literals.size(), 1u);
  EXPECT_EQ(lifted.literals[0].text, "say \"hi\"");
}

TEST(NormalizeTest, DifferentLiteralsShareAShape) {
  EXPECT_EQ(NormalizeUpdateText("WHERE $b/k = 1"),
            NormalizeUpdateText("WHERE $b/k = 2"));
  EXPECT_EQ(Lift("WHERE $b/k = -20").literals[0].text, "-20");
}

TEST(NormalizeTest, LexicalClassesStayInTheShape) {
  EXPECT_EQ(NormalizeUpdateText("WHERE $b/k = 1"), "WHERE $b/k = #i");
  EXPECT_EQ(NormalizeUpdateText("WHERE $b/k = 1.0"), "WHERE $b/k = #d");
  EXPECT_EQ(NormalizeUpdateText("WHERE $b/k = \"1\""), "WHERE $b/k = #s");
}

TEST(NormalizeTest, DocumentNamesStayInTheShape) {
  EXPECT_NE(NormalizeUpdateText("FOR $b IN document(\"a.xml\")/book"),
            NormalizeUpdateText("FOR $b IN document(\"b.xml\")/book"));
  EXPECT_EQ(NormalizeUpdateText("FOR $b IN document('a.xml')/book"),
            "FOR $b IN document('a.xml')/book");
}

TEST(NormalizeTest, PayloadTextIsLiftedByteForByte) {
  const std::string text =
      "FOR $c IN document(\"V\")/c UPDATE $c { REPLACE $c/n WITH "
      "<n>Ann   Lee</n> }";
  LiftedUpdate lifted = Lift(text);
  EXPECT_EQ(lifted.shape,
            "FOR $c IN document(\"V\")/c UPDATE $c { REPLACE $c/n WITH "
            "<n>#t</n> }");
  ASSERT_EQ(lifted.literals.size(), 1u);
  EXPECT_EQ(lifted.literals[0].cls, LiteralClass::kText);
  EXPECT_EQ(lifted.literals[0].text, "Ann   Lee");
  std::string single = text;
  single.replace(single.find("Ann   Lee"), 9, "Ann Lee");
  EXPECT_EQ(Lift(single).shape, lifted.shape);
}

TEST(NormalizeTest, EmptyPayloadElementIsItsOwnShape) {
  // u1's <title></title> must not share a plan with u4's <title>...</title>.
  const std::string prefix = "FOR $r IN document(\"V\") UPDATE $r { INSERT ";
  EXPECT_NE(NormalizeUpdateText(prefix + "<b><title></title></b> }"),
            NormalizeUpdateText(prefix + "<b><title>T</title></b> }"));
  // Whitespace between payload tags is not text.
  EXPECT_EQ(NormalizeUpdateText(prefix + "<b>\n  <title>T</title>\n</b> }"),
            NormalizeUpdateText(prefix + "<b><title>U</title></b> }"));
}

TEST(NormalizeTest, PayloadQuotesAreCharacterData) {
  LiftedUpdate lifted = Lift(
      "FOR $r IN document(\"V\") UPDATE $r { INSERT <n>O'Brien \"x</n> }");
  ASSERT_EQ(lifted.literals.size(), 1u);
  EXPECT_EQ(lifted.literals[0].text, "O'Brien \"x");
}

TEST(NormalizeTest, LiteralValuesMatchTheParser) {
  EXPECT_EQ(*LiteralValue(LiteralClass::kInteger, "-3"), Value::Int(-3));
  EXPECT_EQ(*LiteralValue(LiteralClass::kDecimal, "40.50"),
            Value::Double(40.5));
  EXPECT_EQ(*LiteralValue(LiteralClass::kString, "  padded "),
            Value::String("padded"));
  EXPECT_EQ(*LiteralValue(LiteralClass::kText, " \"98004\" "),
            Value::String("98004"));
  EXPECT_EQ(*LiteralValue(LiteralClass::kText, "O&apos;Brien"),
            Value::String("O'Brien"));
  EXPECT_FALSE(LiteralValue(LiteralClass::kInteger, "99999999999999999999")
                   .ok());
  EXPECT_FALSE(LiteralValue(LiteralClass::kText, "a &bogus; b").ok());
}

TEST(NormalizeTest, UnlexableTextDoesNotLift) {
  LiftedUpdate lifted;
  EXPECT_FALSE(LiftUpdate("FOR $b IN `x`", &lifted).ok());
  // The rest is kept, so the text stays recognizable in logs.
  EXPECT_EQ(NormalizeUpdateText("FOR  $b IN   `x`  y"), "FOR $b IN `x` y");
}

TEST(NormalizeTest, HashIsStable) {
  const std::string text = NormalizeUpdateText("DELETE $b");
  EXPECT_EQ(HashUpdateTemplate(text), HashUpdateTemplate(text));
}

}  // namespace
}  // namespace ufilter::xq
