// Section 7.3: U-Filter on the (synthetic) Protein Sequence Database —
// non-well-nested views and the SET NULL delete policy.
#include <gtest/gtest.h>

#include "fixtures/psd.h"
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
using relational::DeletePolicy;

TEST(PsdTest, KeywordViewIsNotWellNestedYetChecksFine) {
  auto db = fixtures::MakePsdDatabase();
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::PsdKeywordViewQuery());
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  // Deleting a protein-under-keyword is conditionally translatable: the
  // protein tuple is shared across keywords (dirty), but a clean source
  // (the annotation tuple) exists.
  CheckReport r = (*uf)->Check(
      "FOR $keyword IN document(\"v\")/keyword, $protein IN "
      "$keyword/protein WHERE $keyword/kid/text() = \"K01\" AND "
      "$protein/pid/text() = \"P001\" UPDATE $keyword { DELETE $protein }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kConditionallyTranslatable);
  // The annotation A1 is gone; protein P001 survives (still under K02).
  EXPECT_EQ((*(*db)->GetTable("annotation"))->live_row_count(), 4u);
  EXPECT_EQ((*(*db)->GetTable("protein"))->live_row_count(), 3u);
}

TEST(PsdTest, RectangleRuleOnNonWellNestedDelete) {
  auto db = fixtures::MakePsdDatabase();
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::PsdKeywordViewQuery());
  ASSERT_TRUE(uf.ok());
  const std::string text =
      "FOR $keyword IN document(\"v\")/keyword, $protein IN "
      "$keyword/protein WHERE $keyword/kid/text() = \"K02\" AND "
      "$protein/pid/text() = \"P002\" UPDATE $keyword { DELETE $protein }";
  auto stmt = xq::ParseUpdate(text);
  ASSERT_TRUE(stmt.ok());
  auto expected = (*uf)->MaterializeView();
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(check::ApplyUpdateToXml(expected->get(), *stmt).ok());
  CheckReport r = (*uf)->Check(text);
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  auto actual = (*uf)->MaterializeView();
  ASSERT_TRUE(actual.ok());
  auto diff = view::FirstDifference(**expected, **actual);
  EXPECT_FALSE(diff.has_value()) << *diff;
}

TEST(PsdTest, ProteinDeleteUnderSetNullKeepsReferencesAlive) {
  auto db = fixtures::MakePsdDatabase(DeletePolicy::kSetNull);
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::PsdProteinViewQuery());
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(
      "FOR $root IN document(\"v\"), $protein = $root/protein WHERE "
      "$protein/pid/text() = \"P003\" UPDATE $root { DELETE $protein }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ((*(*db)->GetTable("protein"))->live_row_count(), 2u);
  // P003 has no references; but the policy matters for P001-style deletes:
  CheckReport r2 = (*uf)->Check(
      "FOR $root IN document(\"v\"), $protein = $root/protein WHERE "
      "$protein/pid/text() = \"P001\" UPDATE $root { DELETE $protein }");
  ASSERT_EQ(r2.outcome, CheckOutcome::kExecuted) << r2.Describe();
  // References survive with NULLed pid under SET NULL.
  EXPECT_EQ((*(*db)->GetTable("reference"))->live_row_count(), 3u);
}

TEST(PsdTest, ProteinDeleteUnderCascadeRemovesReferences) {
  auto db = fixtures::MakePsdDatabase(DeletePolicy::kCascade);
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::PsdProteinViewQuery());
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(
      "FOR $root IN document(\"v\"), $protein = $root/protein WHERE "
      "$protein/pid/text() = \"P001\" UPDATE $root { DELETE $protein }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  // P001's two references cascade away.
  EXPECT_EQ((*(*db)->GetTable("reference"))->live_row_count(), 1u);
}

TEST(PsdTest, RestrictPolicySurfacesEngineError) {
  auto db = fixtures::MakePsdDatabase(DeletePolicy::kRestrict);
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::PsdProteinViewQuery());
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(
      "FOR $root IN document(\"v\"), $protein = $root/protein WHERE "
      "$protein/pid/text() = \"P001\" UPDATE $root { DELETE $protein }");
  // The engine refuses (referenced by reference/annotation); U-Filter
  // reports the data-level conflict and leaves the database unchanged.
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
  EXPECT_EQ((*(*db)->GetTable("protein"))->live_row_count(), 3u);
}

TEST(PsdTest, KeywordInsertIntoExistingProtein) {
  auto db = fixtures::MakePsdDatabase();
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::PsdKeywordViewQuery());
  ASSERT_TRUE(uf.ok());
  // Attach protein P003 to keyword K01 (new annotation).
  CheckReport r = (*uf)->Check(
      "FOR $keyword IN document(\"v\")/keyword WHERE $keyword/kid/text() = "
      "\"K01\" UPDATE $keyword { INSERT <protein><pid>P003</pid>"
      "<name>Lysozyme C</name><annotation><aid>A9</aid>"
      "<note>new link</note></annotation></protein> }");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ((*(*db)->GetTable("annotation"))->live_row_count(), 6u);
  // Protein P003 was reused, not duplicated.
  EXPECT_EQ((*(*db)->GetTable("protein"))->live_row_count(), 3u);
}

}  // namespace
}  // namespace ufilter
