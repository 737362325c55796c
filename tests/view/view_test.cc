#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "view/analyzed_view.h"
#include "view/diff.h"
#include "view/materializer.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xquery/parser.h"

namespace ufilter::view {
namespace {

class BookViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto q = xq::ParseViewQuery(fixtures::BookViewQuery());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    query_ = std::move(*q);
    auto v = AnalyzedView::Analyze(query_, &db_->schema());
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    view_ = std::move(*v);
  }

  std::unique_ptr<relational::Database> db_;
  xq::ViewQuery query_;
  std::unique_ptr<AnalyzedView> view_;
};

TEST_F(BookViewTest, RelationsAndRoot) {
  auto rels = view_->Relations();
  ASSERT_EQ(rels.size(), 3u);
  EXPECT_EQ(rels[0], "book");
  EXPECT_EQ(rels[1], "publisher");
  EXPECT_EQ(rels[2], "review");
  EXPECT_EQ(view_->root().tag, "BookView");
}

TEST_F(BookViewTest, ScopesAndConditions) {
  // Root has two groups: the book FLWR and the publisher list FLWR.
  const AvNode& root = view_->root();
  ASSERT_EQ(root.children.size(), 2u);
  const AvNode& book_group = *root.children[0];
  ASSERT_EQ(book_group.kind, AvNode::Kind::kGroup);
  ASSERT_EQ(book_group.scope->vars.size(), 2u);
  EXPECT_EQ(book_group.scope->vars[0].second, "book");
  ASSERT_EQ(book_group.scope->conditions.size(), 3u);
  EXPECT_TRUE(book_group.scope->conditions[0].is_correlation);
  EXPECT_EQ(book_group.scope->conditions[1].ToString(), "book.price < 50.00");
}

TEST_F(BookViewTest, ElementPathResolution) {
  auto book = view_->ResolveElementPath({"book"});
  ASSERT_TRUE(book.ok());
  EXPECT_EQ((*book)->tag, "book");
  auto pub_inner = view_->ResolveElementPath({"book", "publisher"});
  ASSERT_TRUE(pub_inner.ok());
  auto pub_outer = view_->ResolveElementPath({"publisher"});
  ASSERT_TRUE(pub_outer.ok());
  EXPECT_NE(*pub_inner, *pub_outer);
  EXPECT_FALSE(view_->ResolveElementPath({"book", "missing"}).ok());
}

TEST_F(BookViewTest, RepeatsBelowAndTagPath) {
  auto review = view_->ResolveElementPath({"book", "review"});
  ASSERT_TRUE(review.ok());
  auto path = (*review)->TagPath();
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], "book");
  EXPECT_EQ(path[1], "review");
  auto book = view_->ResolveElementPath({"book"});
  EXPECT_TRUE((*review)->RepeatsBelow(&view_->root()));
  EXPECT_TRUE((*review)->RepeatsBelow(*book));
  auto pub = view_->ResolveElementPath({"book", "publisher"});
  EXPECT_FALSE((*pub)->RepeatsBelow(*book));
}

TEST_F(BookViewTest, AnalyzerRejectsUnknownNames) {
  auto bad1 = xq::ParseViewQuery(
      "<V>FOR $x IN document(\"d\")/nosuch/row RETURN { $x/a }</V>");
  ASSERT_TRUE(bad1.ok());
  EXPECT_FALSE(AnalyzedView::Analyze(*bad1, &db_->schema()).ok());
  auto bad2 = xq::ParseViewQuery(
      "<V>FOR $x IN document(\"d\")/book/row RETURN { $x/nocol }</V>");
  ASSERT_TRUE(bad2.ok());
  EXPECT_FALSE(AnalyzedView::Analyze(*bad2, &db_->schema()).ok());
  auto bad3 = xq::ParseViewQuery(
      "<V>FOR $x IN document(\"d\")/book/row RETURN { $y/bookid }</V>");
  ASSERT_TRUE(bad3.ok());
  EXPECT_FALSE(AnalyzedView::Analyze(*bad3, &db_->schema()).ok());
}

TEST_F(BookViewTest, MaterializesFig3bContent) {
  Materializer m(db_.get());
  auto view = m.Materialize(*view_);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const xml::Node& root = **view;
  EXPECT_EQ(root.label(), "BookView");
  // Two qualifying books (98001 and 98003; 98002 fails year > 1990).
  auto books = root.FindChildren("book");
  ASSERT_EQ(books.size(), 2u);
  EXPECT_EQ(books[0]->ChildText("bookid"), "98001");
  EXPECT_EQ(books[0]->ChildText("price"), "37.00");
  EXPECT_EQ(books[0]->FindChildren("review").size(), 2u);
  EXPECT_EQ(books[1]->ChildText("bookid"), "98003");
  EXPECT_TRUE(books[1]->FindChildren("review").empty());
  // Nested publisher.
  ASSERT_NE(books[0]->FindChild("publisher"), nullptr);
  EXPECT_EQ(books[0]->FindChild("publisher")->ChildText("pubname"),
            "McGraw-Hill Inc.");
  // All three publishers republished at the top level.
  EXPECT_EQ(root.FindChildren("publisher").size(), 3u);
}

TEST_F(BookViewTest, MaterializerOmitsNullLeaves) {
  // A book with NULL price renders without a <price> element — but price
  // has a view predicate, so use year instead (no predicate on year means
  // year > 1990 filters it; use a fresh view without predicates).
  auto q = xq::ParseViewQuery(
      "<V>FOR $b IN document(\"d\")/book/row RETURN { <book> $b/bookid, "
      "$b/year </book> }</V>");
  ASSERT_TRUE(q.ok());
  auto view = AnalyzedView::Analyze(*q, &db_->schema());
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE(db_->Insert("book", {Value::String("99"), Value::String("T"),
                                   Value::Null(), Value::Double(5),
                                   Value::Null()})
                  .ok());
  Materializer m(db_.get());
  auto xml = m.Materialize(**view);
  ASSERT_TRUE(xml.ok());
  auto books = (*xml)->FindChildren("book");
  ASSERT_EQ(books.size(), 4u);
  EXPECT_EQ(books[3]->FindChild("year"), nullptr);
  EXPECT_NE(books[3]->FindChild("bookid"), nullptr);
}

TEST(DiffTest, ReportsFirstDifference) {
  auto a = xml::Parse("<v><b><x>1</x></b></v>");
  auto b = xml::Parse("<v><b><x>2</x></b></v>");
  ASSERT_TRUE(a.ok() && b.ok());
  auto d = FirstDifference(**a, **b);
  ASSERT_TRUE(d.has_value());
  EXPECT_NE(d->find("'1' vs '2'"), std::string::npos);
  EXPECT_TRUE(TreesEqual(**a, **a));
}

TEST(DiffTest, ChildCountDifference) {
  auto a = xml::Parse("<v><b/></v>");
  auto b = xml::Parse("<v><b/><b/></v>");
  ASSERT_TRUE(a.ok() && b.ok());
  auto d = FirstDifference(**a, **b);
  ASSERT_TRUE(d.has_value());
  EXPECT_NE(d->find("child count"), std::string::npos);
}

}  // namespace
}  // namespace ufilter::view
