#include <gtest/gtest.h>

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace ufilter::xml {
namespace {

TEST(NodeTest, BuildAndNavigate) {
  NodePtr book = Node::Element("book");
  book->AddChild(Node::SimpleElement("bookid", "98001"));
  book->AddChild(Node::SimpleElement("title", "TCP/IP Illustrated"));
  EXPECT_EQ(book->ChildText("bookid"), "98001");
  EXPECT_EQ(book->ElementChildren().size(), 2u);
  EXPECT_EQ(book->FindChild("missing"), nullptr);
  EXPECT_EQ(book->CountElements(), 3u);
}

TEST(NodeTest, RemoveChildReturnsOwnership) {
  NodePtr book = Node::Element("book");
  Node* title = book->AddChild(Node::SimpleElement("title", "X"));
  NodePtr removed = book->RemoveChild(title);
  ASSERT_NE(removed.get(), nullptr);
  EXPECT_EQ(removed->label(), "title");
  EXPECT_EQ(removed->parent(), nullptr);
  EXPECT_TRUE(book->children().empty());
}

TEST(NodeTest, CloneIsDeepAndEqual) {
  NodePtr book = Node::Element("book");
  book->AddChild(Node::SimpleElement("bookid", "98001"));
  NodePtr copy = book->Clone();
  EXPECT_TRUE(book->Equals(*copy));
  copy->children()[0]->children()[0]->set_label("changed");
  EXPECT_FALSE(book->Equals(*copy));
}

TEST(NodeTest, EqualsIsOrderSensitive) {
  NodePtr a = Node::Element("r");
  a->AddChild(Node::SimpleElement("x", "1"));
  a->AddChild(Node::SimpleElement("y", "2"));
  NodePtr b = Node::Element("r");
  b->AddChild(Node::SimpleElement("y", "2"));
  b->AddChild(Node::SimpleElement("x", "1"));
  EXPECT_FALSE(a->Equals(*b));
}

TEST(ParserTest, RoundTrip) {
  const char* kText =
      "<book><bookid>98001</bookid><title>TCP/IP</title>"
      "<publisher><pubid>A01</pubid></publisher></book>";
  auto parsed = Parse(kText);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::string serialized = ToString(**parsed, {.pretty = false});
  auto reparsed = Parse(serialized);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE((*parsed)->Equals(**reparsed));
}

TEST(ParserTest, EntitiesDecodeAndEscape) {
  auto parsed = Parse("<p>Simon &amp; Schuster &lt;Inc&gt;</p>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->TextContent(), "Simon & Schuster <Inc>");
  std::string out = ToString(**parsed, {.pretty = false});
  EXPECT_EQ(out, "<p>Simon &amp; Schuster &lt;Inc&gt;</p>");
}

TEST(ParserTest, SelfClosingAndEmptyElements) {
  auto parsed = Parse("<a><b/><c></c></a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->ElementChildren().size(), 2u);
  EXPECT_TRUE((*parsed)->FindChild("b")->children().empty());
  EXPECT_TRUE((*parsed)->FindChild("c")->children().empty());
}

TEST(ParserTest, CommentsAndPrologSkipped) {
  auto parsed =
      Parse("<?xml version=\"1.0\"?><!-- hi --><a><!-- x -->1</a>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->TextContent(), "1");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("<a><b></a>").ok());        // mismatched close
  EXPECT_FALSE(Parse("<a>").ok());               // unterminated
  EXPECT_FALSE(Parse("<a></a><b></b>").ok());    // trailing content
  EXPECT_FALSE(Parse("<a>&bogus;</a>").ok());    // unknown entity
  EXPECT_FALSE(Parse("plain text").ok());        // no element
}

TEST(WriterTest, PrettyPrintingNests) {
  NodePtr root = Node::Element("BookView");
  Node* book = root->AddChild(Node::Element("book"));
  book->AddChild(Node::SimpleElement("bookid", "98001"));
  std::string out = ToString(*root);
  EXPECT_NE(out.find("<BookView>\n"), std::string::npos);
  EXPECT_NE(out.find("  <book>\n"), std::string::npos);
  EXPECT_NE(out.find("    <bookid>98001</bookid>\n"), std::string::npos);
}

// --- Malformed-input corpus: these bytes arrive off a socket, so every
// --- failure must be a ParseError Status — never a crash, hang, or UB.

TEST(ParserHardeningTest, EmptyAndWhitespaceOnlyInputs) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("   \n\t  ").ok());
  EXPECT_FALSE(Parse("<!-- only a comment -->").ok());
  EXPECT_FALSE(Parse("<?xml version=\"1.0\"?>").ok());
}

TEST(ParserHardeningTest, TruncatedMidToken) {
  const char* corpus[] = {
      "<",
      "<boo",
      "<book>",
      "<book><title>X</title>",
      "<book></bo",
      "<book></book",
      "<book>text &am",
      "<book><!-- unterminated",
      "<?xml unterminated",
  };
  for (const char* text : corpus) {
    auto got = Parse(text);
    EXPECT_FALSE(got.ok()) << "accepted: " << text;
    EXPECT_TRUE(got.status().IsParseError()) << got.status().ToString();
  }
}

TEST(ParserHardeningTest, EmbeddedNulIsDataNotTerminator) {
  // A NUL inside text content must not truncate parsing.
  std::string text("<a>x\0y</a>", 10);
  auto got = Parse(text);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::string expected("x\0y", 3);
  EXPECT_EQ((*got)->TextContent(), expected);

  // A NUL where a tag name belongs is a clean error.
  std::string bad("<\0a>x</\0a>", 10);
  EXPECT_FALSE(Parse(bad).ok());
}

TEST(ParserHardeningTest, MegabyteSingleTokenInputs) {
  // One giant tag name and one giant text run: linear, no crash.
  std::string giant_name(1 << 20, 'a');
  EXPECT_FALSE(Parse("<" + giant_name).ok());
  auto ok = Parse("<" + giant_name + ">t</" + giant_name + ">");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  std::string giant_text(1 << 20, 'x');
  auto got = Parse("<a>" + giant_text + "</a>");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ((*got)->TextContent().size(), giant_text.size());
}

TEST(ParserHardeningTest, DeepNestingIsAnErrorNotAStackOverflow) {
  // Hostile nesting past any real document: must come back as Status.
  constexpr int kDepth = 200000;
  std::string deep;
  deep.reserve(static_cast<size_t>(kDepth) * 7 + 16);
  for (int i = 0; i < kDepth; ++i) deep += "<a>";
  deep += "x";
  for (int i = 0; i < kDepth; ++i) deep += "</a>";
  auto got = Parse(deep);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsParseError()) << got.status().ToString();

  // Depth just under the cap still parses.
  std::string shallow;
  for (int i = 0; i < 100; ++i) shallow += "<a>";
  shallow += "x";
  for (int i = 0; i < 100; ++i) shallow += "</a>";
  EXPECT_TRUE(Parse(shallow).ok());
}

}  // namespace
}  // namespace ufilter::xml
