// Scalable synthetic chain views: correctness at depth (every level clean &
// safe, deletes cascade exactly) plus the Section 7.1 claim that the STAR
// marking procedure is polynomial in the view-query size.
#include <gtest/gtest.h>

#include <chrono>

#include "fixtures/synthetic.h"
#include "ufilter/checker.h"
#include "ufilter/xml_apply.h"
#include "view/diff.h"
#include "xquery/parser.h"

namespace ufilter {
namespace {

using check::CheckOutcome;
using check::CheckReport;
using check::Translatability;
using check::UFilter;

class ChainDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(ChainDepthTest, AllLevelsCleanSafeAndUnconditional) {
  int depth = GetParam();
  auto db = fixtures::MakeChainDatabase(depth, 4);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto uf =
      UFilter::Create(db->get(), fixtures::ChainViewQuery(depth));
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  for (const auto& node : (*uf)->view_asg().nodes()) {
    if (!node.is_internal()) continue;
    EXPECT_TRUE(node.mark.safe_delete) << node.tag << " depth " << depth;
    EXPECT_TRUE(node.mark.safe_insert) << node.tag;
    EXPECT_TRUE(node.mark.clean) << node.tag;
  }
}

TEST_P(ChainDepthTest, DeepestDeleteIsExactAndSideEffectFree) {
  int depth = GetParam();
  auto db = fixtures::MakeChainDatabase(depth, 4);
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::ChainViewQuery(depth));
  ASSERT_TRUE(uf.ok());
  const std::string text = fixtures::ChainDeleteUpdate(depth - 1, 2);
  auto stmt = xq::ParseUpdate(text);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  auto expected = (*uf)->MaterializeView();
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(check::ApplyUpdateToXml(expected->get(), *stmt).ok());
  CheckReport r = (*uf)->Check(text);
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kUnconditionallyTranslatable);
  EXPECT_EQ(r.rows_affected, 1);  // leaf level: no cascade below
  auto actual = (*uf)->MaterializeView();
  ASSERT_TRUE(actual.ok());
  auto diff = view::FirstDifference(**expected, **actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST_P(ChainDepthTest, TopDeleteCascadesWholeSubchain) {
  int depth = GetParam();
  auto db = fixtures::MakeChainDatabase(depth, 4);
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::ChainViewQuery(depth));
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(fixtures::ChainDeleteUpdate(0, 1));
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  // Row 1 at every level references row 1 above: one tuple per level goes.
  EXPECT_EQ(r.rows_affected, depth);
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepthTest,
                         ::testing::Values(2, 3, 5, 8, 12));

TEST(ChainScalingTest, MarkingStaysPolynomial) {
  // Marking time must grow gently with view size (poly, small constants):
  // compare depth 4 vs depth 16 — allow a generous 100x envelope against
  // the 16x node growth (quadratic rules), just catching exponential
  // blowups.
  auto time_marking = [](int depth) {
    auto db = fixtures::MakeChainDatabase(depth, 2);
    EXPECT_TRUE(db.ok());
    auto t0 = std::chrono::steady_clock::now();
    auto uf = UFilter::Create(db->get(), fixtures::ChainViewQuery(depth));
    EXPECT_TRUE(uf.ok());
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  double shallow = time_marking(4);
  double deep = time_marking(16);
  EXPECT_LT(deep, shallow * 100 + 0.05);
}

}  // namespace
}  // namespace ufilter
