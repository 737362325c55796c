// The two-phase lifecycle must be observationally identical to the one-shot
// path: for every paper update u1..u13, Prepare + Execute lands in the same
// verdict with the same translation as Check, and a plan can be executed
// repeatedly.
#include <gtest/gtest.h>

#include <memory>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/sqlgen.h"
#include "ufilter/checker.h"
#include "xquery/parser.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::Translatability;
using check::UFilter;

struct Instance {
  std::unique_ptr<relational::Database> db;
  std::unique_ptr<UFilter> uf;
};

Instance MakeInstance() {
  Instance inst;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

void ExpectSameReport(const CheckReport& a, const CheckReport& b,
                      const std::string& label) {
  EXPECT_EQ(a.outcome, b.outcome) << label << ": " << a.Describe() << " vs "
                                  << b.Describe();
  EXPECT_EQ(a.star_class, b.star_class) << label;
  EXPECT_EQ(a.condition, b.condition) << label;
  EXPECT_EQ(a.rows_affected, b.rows_affected) << label;
  EXPECT_EQ(a.zero_tuple_warning, b.zero_tuple_warning) << label;
  EXPECT_EQ(relational::UpdateSequenceToSql(a.translation),
            relational::UpdateSequenceToSql(b.translation))
      << label;
  EXPECT_EQ(a.probes, b.probes) << label;
}

TEST(PreparedEquivalenceTest, RoundTripsEveryPaperUpdate) {
  for (int u = 1; u <= 13; ++u) {
    // Separate instances so applied updates cannot contaminate each other.
    Instance one_shot = MakeInstance();
    Instance two_phase = MakeInstance();
    CheckReport via_check = one_shot.uf->Check(fixtures::PaperUpdate(u));
    auto plan = two_phase.uf->Prepare(fixtures::PaperUpdate(u));
    CheckReport via_execute = two_phase.uf->Execute(*plan);
    ExpectSameReport(via_check, via_execute, "u" + std::to_string(u));
    // The databases must agree on the resulting state.
    EXPECT_EQ(one_shot.db->TotalRows(), two_phase.db->TotalRows())
        << "u" << u;
  }
}

TEST(PreparedEquivalenceTest, PlanIsReusableAcrossExecutes) {
  Instance inst = MakeInstance();
  auto plan = inst.uf->Prepare(fixtures::PaperUpdate(8));
  CheckOptions dry;
  dry.apply = false;
  CheckReport first = inst.uf->Execute(*plan, dry);
  CheckReport second = inst.uf->Execute(*plan, dry);
  ExpectSameReport(first, second, "repeated execute");
  EXPECT_EQ(first.outcome, CheckOutcome::kExecuted) << first.Describe();
}

TEST(PreparedEquivalenceTest, PlanExposesCompileVerdict) {
  Instance inst = MakeInstance();
  auto plan = inst.uf->Prepare(fixtures::PaperUpdate(9));
  ASSERT_TRUE(plan->parsed());
  ASSERT_EQ(plan->actions().size(), 1u);
  EXPECT_TRUE(plan->actions()[0].bound_ok);
  EXPECT_EQ(plan->star_class(), Translatability::kConditionallyTranslatable);
  EXPECT_EQ(plan->owner(), inst.uf.get());
  EXPECT_FALSE(plan->normalized_text().empty());
  EXPECT_NE(plan->template_hash(), 0u);
}

TEST(PreparedEquivalenceTest, RunStarFalseSkipsTheStarGate) {
  // The "Update" (no checking) baseline: a prepared untranslatable update
  // goes through to step 3 when the STAR gate is disabled.
  Instance inst = MakeInstance();
  CheckOptions options;
  options.run_star = false;
  options.apply = false;
  CheckReport r = inst.uf->Check(fixtures::PaperUpdate(2), options);
  EXPECT_NE(r.outcome, CheckOutcome::kUntranslatable) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kUnclassified);
}

TEST(PreparedEquivalenceTest, RunStarFalseColdPathPaysNoStarAnywhere) {
  // The Figs. 13/14 baseline contract: with the STAR gate off and the plan
  // cache bypassed, no STAR classification runs — not even at compile.
  Instance inst = MakeInstance();
  CheckOptions options;
  options.run_star = false;
  options.apply = false;
  options.use_plan_cache = false;
  obs::CounterWindow counters(inst.db->registry());
  CheckReport r = inst.uf->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(counters.Delta("engine_star_checks"), 0u);
}

TEST(PreparedEquivalenceTest, CachedPlanServesLaterRunStarTrueCalls) {
  // A plan first requested with run_star=false still carries STAR (cached
  // plans are compiled fully), so a later run_star=true Check on the same
  // template gets the real verdict from the cache.
  Instance inst = MakeInstance();
  CheckOptions no_star;
  no_star.run_star = false;
  CheckReport first = inst.uf->Check(fixtures::PaperUpdate(2), no_star);
  EXPECT_NE(first.outcome, CheckOutcome::kUntranslatable);
  CheckReport second = inst.uf->Check(fixtures::PaperUpdate(2));
  EXPECT_EQ(second.outcome, CheckOutcome::kUntranslatable)
      << second.Describe();
  EXPECT_TRUE(second.from_plan_cache);
}

TEST(PreparedEquivalenceTest, RunDataCheckFalseStopsAfterStar) {
  Instance inst = MakeInstance();
  CheckOptions options;
  options.run_data_check = false;
  CheckReport r = inst.uf->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kUnconditionallyTranslatable);
  EXPECT_TRUE(r.translation.empty());
  EXPECT_TRUE(r.probes.empty());
}

TEST(PreparedEquivalenceTest, MultiActionStatementViaPrepare) {
  // Delete the reviews of book 98001 and reinsert one, atomically.
  const std::string stmt_text = R"(FOR $book IN document("BookView.xml")/book
WHERE $book/price < 40.00
UPDATE $book {
  DELETE $book/review,
  INSERT
  <review>
    <reviewid>007</reviewid>
    <comment>Replacement review.</comment>
  </review>
})";
  Instance one_shot = MakeInstance();
  Instance two_phase = MakeInstance();
  CheckReport via_check = one_shot.uf->Check(stmt_text);
  auto plan = two_phase.uf->Prepare(stmt_text);
  ASSERT_EQ(plan->actions().size(), 2u);
  CheckReport via_execute = two_phase.uf->Execute(*plan);
  ExpectSameReport(via_check, via_execute, "multi-action");
  EXPECT_EQ(one_shot.db->TotalRows(), two_phase.db->TotalRows());
}

}  // namespace
}  // namespace ufilter
