// CheckBatch: outcomes must match the one-at-a-time path while the step-3
// anchor/victim probes of same-shaped updates collapse into merged
// OR-of-predicates queries (fewer engine queries than the sum of individual
// checks).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fixtures/bookdb.h"
#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "relational/sqlgen.h"
#include "ufilter/checker.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;

constexpr int kDepth = 3;
constexpr int kRows = 40;

struct Instance {
  std::unique_ptr<relational::Database> db;
  std::unique_ptr<UFilter> uf;
};

Instance MakeChainInstance() {
  Instance inst;
  auto db = fixtures::MakeChainDatabase(kDepth, kRows);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::ChainViewQuery(kDepth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

std::vector<std::string> LeafDeletes(int count) {
  std::vector<std::string> updates;
  for (int k = 0; k < count; ++k) {
    updates.push_back(fixtures::ChainDeleteUpdate(kDepth - 1, k));
  }
  return updates;
}

TEST(BatchCheckTest, OutcomesMatchIndividualChecks) {
  Instance individual = MakeChainInstance();
  Instance batched = MakeChainInstance();
  std::vector<std::string> updates = LeafDeletes(10);
  CheckOptions dry;
  dry.apply = false;

  std::vector<CheckReport> individual_reports;
  for (const std::string& u : updates) {
    individual_reports.push_back(individual.uf->Check(u, dry));
  }
  std::vector<CheckReport> batch_reports = batched.uf->CheckBatch(updates, dry);
  ASSERT_EQ(batch_reports.size(), updates.size());
  for (size_t i = 0; i < updates.size(); ++i) {
    EXPECT_EQ(batch_reports[i].outcome, individual_reports[i].outcome)
        << "update " << i << ": " << batch_reports[i].Describe();
    EXPECT_EQ(batch_reports[i].rows_affected,
              individual_reports[i].rows_affected)
        << "update " << i;
    EXPECT_EQ(relational::UpdateSequenceToSql(batch_reports[i].translation),
              relational::UpdateSequenceToSql(
                  individual_reports[i].translation))
        << "update " << i;
  }
}

TEST(BatchCheckTest, IssuesFewerProbeQueriesThanIndividualChecks) {
  Instance individual = MakeChainInstance();
  Instance batched = MakeChainInstance();
  std::vector<std::string> updates = LeafDeletes(8);  // >= 8 per acceptance
  CheckOptions dry;
  dry.apply = false;

  obs::CounterWindow individual_counters(individual.db->registry());
  for (const std::string& u : updates) {
    CheckReport r = individual.uf->Check(u, dry);
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  }
  uint64_t individual_queries =
      individual_counters.Delta("engine_queries_executed");

  obs::CounterWindow batch_counters(batched.db->registry());
  std::vector<CheckReport> reports = batched.uf->CheckBatch(updates, dry);
  for (const CheckReport& r : reports) {
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  }

  EXPECT_LT(batch_counters.Delta("engine_queries_executed"),
            individual_queries)
      << "batching did not reduce probe queries";
  // All 8 updates share one anchor shape and one victim shape.
  EXPECT_EQ(batch_counters.Delta("engine_batch_queries_executed"), 2u);
  EXPECT_EQ(batch_counters.Delta("engine_batch_branches_merged"), 16u);
  // The merged SQL is recorded per report.
  ASSERT_FALSE(reports[0].probes.empty());
  EXPECT_NE(reports[0].probes[0].find(" OR "), std::string::npos)
      << reports[0].probes[0];
}

TEST(BatchCheckTest, AppliedBatchMatchesSequentialState) {
  Instance individual = MakeChainInstance();
  Instance batched = MakeChainInstance();
  std::vector<std::string> updates = LeafDeletes(6);

  for (const std::string& u : updates) {
    CheckReport r = individual.uf->Check(u);
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  }
  std::vector<CheckReport> reports = batched.uf->CheckBatch(updates);
  for (const CheckReport& r : reports) {
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  }
  EXPECT_EQ(batched.db->TotalRows(), individual.db->TotalRows());
}

TEST(BatchCheckTest, MixedVerdictBatch) {
  // Heterogeneous batch over the book view: executed, untranslatable,
  // unparsable, data conflict, zero-tuple warning.
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf.ok());
  std::vector<std::string> updates = {
      fixtures::PaperUpdate(8),   // executed
      fixtures::PaperUpdate(2),   // untranslatable
      "NOT AN UPDATE",            // invalid
      fixtures::PaperUpdate(11),  // data conflict (context probe empty)
      fixtures::PaperUpdate(12),  // zero-tuple warning
  };
  CheckOptions dry;
  dry.apply = false;
  std::vector<CheckReport> reports = (*uf)->CheckBatch(updates, dry);
  ASSERT_EQ(reports.size(), 5u);
  EXPECT_EQ(reports[0].outcome, CheckOutcome::kExecuted)
      << reports[0].Describe();
  EXPECT_EQ(reports[1].outcome, CheckOutcome::kUntranslatable);
  EXPECT_EQ(reports[2].outcome, CheckOutcome::kInvalid);
  EXPECT_EQ(reports[3].outcome, CheckOutcome::kDataConflict)
      << reports[3].Describe();
  EXPECT_EQ(reports[4].outcome, CheckOutcome::kExecuted);
  EXPECT_TRUE(reports[4].zero_tuple_warning) << reports[4].Describe();
}

TEST(BatchCheckTest, MultiActionStatementsFallBackToAtomicPath) {
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto uf = UFilter::Create(db->get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf.ok());
  const std::string multi = R"(FOR $book IN document("BookView.xml")/book
WHERE $book/price < 40.00
UPDATE $book {
  DELETE $book/review,
  INSERT
  <review>
    <reviewid>007</reviewid>
    <comment>Replacement review.</comment>
  </review>
})";
  std::vector<CheckReport> reports =
      (*uf)->CheckBatch({multi, fixtures::PaperUpdate(12)});
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].outcome, CheckOutcome::kExecuted)
      << reports[0].Describe();
  EXPECT_EQ(reports[1].outcome, CheckOutcome::kExecuted)
      << reports[1].Describe();
}

TEST(BatchCheckTest, BatchUsesThePlanCache) {
  Instance inst = MakeChainInstance();
  std::vector<std::string> updates = LeafDeletes(4);
  CheckOptions dry;
  dry.apply = false;
  (void)inst.uf->CheckBatch(updates, dry);
  obs::CounterWindow counters(inst.db->registry());
  std::vector<CheckReport> reports = inst.uf->CheckBatch(updates, dry);
  EXPECT_EQ(counters.Delta("plan_cache_hits"), 4u);
  EXPECT_EQ(counters.Delta("engine_updates_compiled"), 0u);
  for (const CheckReport& r : reports) {
    EXPECT_TRUE(r.from_plan_cache);
  }
}

TEST(BatchCheckTest, EmptyBatchReturnsNoReports) {
  Instance inst = MakeChainInstance();
  EXPECT_TRUE(inst.uf->CheckBatch({}).empty());
}

}  // namespace
}  // namespace ufilter
