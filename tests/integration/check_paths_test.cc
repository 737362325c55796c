// One way to check: every check-only path runs the statement on an
// overlay, so each is compared with an oracle none of them share — the
// statement executed on the live tables and rolled back
// (tests/support/check_oracle.h). For u1..u13 and the multi-action texts,
// under every strategy, in-process Check(apply=false), TryCheckReadOnly on
// a pinned context and the service must each report exactly what the
// oracle reports, and the service must serve every one of them without
// its writer lane. Applies keep the writer lane: a multi-action apply
// through the service (where the first write clones a published table)
// must report and leave what the same apply leaves in process.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/sqlgen.h"
#include "service/check_service.h"
#include "ufilter/checker.h"

#include "../support/check_oracle.h"
#include "../support/multiaction_texts.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::DataCheckStrategy;
using check::UFilter;
using relational::Database;
using service::CheckService;
using service::CheckServiceOptions;

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
};

Instance MakeBookInstance() {
  Instance inst;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

uint64_t Series(const CheckService& svc, const std::string& name) {
  return obs::SampleValue(svc.registry().Collect(), name);
}

/// u1..u13 and the multi-action texts.
std::vector<std::string> Texts() {
  std::vector<std::string> texts;
  for (int u = 1; u <= 13; ++u) texts.push_back(fixtures::PaperUpdate(u));
  for (std::string& text : test_support::MultiActionTexts()) {
    texts.push_back(std::move(text));
  }
  return texts;
}

/// Every field of the report but its timings.
void ExpectSameReport(const CheckReport& got, const CheckReport& want,
                      const std::string& label) {
  EXPECT_EQ(got.outcome, want.outcome) << label << ": " << got.Describe();
  EXPECT_EQ(got.error.ToString(), want.error.ToString()) << label;
  EXPECT_EQ(got.star_class, want.star_class) << label;
  EXPECT_EQ(got.condition, want.condition) << label;
  EXPECT_EQ(relational::UpdateSequenceToSql(got.translation),
            relational::UpdateSequenceToSql(want.translation))
      << label;
  EXPECT_EQ(got.rows_affected, want.rows_affected) << label;
  EXPECT_EQ(got.zero_tuple_warning, want.zero_tuple_warning) << label;
  EXPECT_EQ(got.probes, want.probes) << label;
}

/// Every live row of every base table, by slot.
std::string Rows(const Database& db) {
  std::string out;
  for (const relational::TableSchema& schema : db.schema().tables()) {
    const relational::Table* table = *db.GetTable(schema.name());
    for (relational::RowId id : table->AllRowIds()) {
      out += schema.name() + "#" + std::to_string(id) + ":";
      for (const Value& v : *table->GetRow(id)) out += " " + v.ToSqlLiteral();
      out += "\n";
    }
  }
  return out;
}

constexpr DataCheckStrategy kStrategies[] = {DataCheckStrategy::kInternal,
                                             DataCheckStrategy::kHybrid,
                                             DataCheckStrategy::kOutside};

TEST(CheckPathsTest, EveryCheckOnlyPathMatchesExecuteAndRollBack) {
  const std::vector<std::string> texts = Texts();
  for (DataCheckStrategy strategy : kStrategies) {
    Instance oracle = MakeBookInstance();
    Instance inst = MakeBookInstance();
    const std::string rows_before = Rows(*inst.db);
    CheckServiceOptions service_options;
    service_options.worker_threads = 2;
    CheckService svc(inst.uf.get(), service_options);
    auto session = svc.OpenSession();
    auto pinned = inst.db->CreateContext();
    const uint64_t lane_before = Series(svc, "service_writer_lane");

    CheckOptions options;
    options.strategy = strategy;
    options.apply = false;
    for (size_t i = 0; i < texts.size(); ++i) {
      const std::string label = std::string(DataCheckStrategyName(strategy)) +
                                " text " + std::to_string(i);
      const CheckReport want =
          test_support::CheckByExecution(oracle.uf.get(), texts[i], options);
      ExpectSameReport(inst.uf->Check(texts[i], options), want,
                       label + " in process");

      pinned->PinReadSnapshot(inst.db->OpenSnapshot());
      auto plan = inst.uf->Prepare(texts[i], nullptr, pinned.get());
      std::optional<CheckReport> read_only =
          inst.uf->TryCheckReadOnly(*plan, options, pinned.get());
      pinned->ClearReadSnapshot();
      ASSERT_TRUE(read_only.has_value()) << label;
      ExpectSameReport(*read_only, want, label + " read-only");

      ExpectSameReport(svc.Submit(session, texts[i], options).get(), want,
                       label + " service");
    }
    EXPECT_EQ(Series(svc, "service_writer_lane"), lane_before)
        << "a check-only request took the writer lane";
    EXPECT_EQ(Series(svc, "service_fast_path"), texts.size());
    EXPECT_EQ(pinned->undo_log_size(), 0u);
    EXPECT_EQ(Rows(*inst.db), rows_before) << "a check wrote";
  }
}

TEST(CheckPathsTest, MultiActionApplyThroughTheServiceMatchesInProcess) {
  for (const char* text : {test_support::kDeleteThenInsert,
                           test_support::kInsertThenDelete,
                           test_support::kDeleteThenUntranslatable}) {
    for (DataCheckStrategy strategy : kStrategies) {
      const std::string label =
          std::string(DataCheckStrategyName(strategy)) + ": " + text;
      CheckOptions options;
      options.strategy = strategy;
      Instance local = MakeBookInstance();
      const CheckReport want = local.uf->Check(text, options);

      Instance served = MakeBookInstance();
      CheckServiceOptions service_options;
      service_options.worker_threads = 2;
      CheckService svc(served.uf.get(), service_options);
      const CheckReport got =
          svc.Submit(svc.OpenSession(), text, options).get();
      svc.Shutdown();
      ExpectSameReport(got, want, label);
      EXPECT_EQ(Series(svc, "service_writer_lane"), 1u) << label;
      EXPECT_EQ(Rows(*served.db), Rows(*local.db)) << label;
    }
  }
}

TEST(CheckPathsTest, ApplyThroughAPinnedContextIsRefused) {
  // A pinned context reads a published version, so an apply through it
  // would write the live tables from stale reads: it is refused before any
  // step runs, and nothing is written.
  Instance inst = MakeBookInstance();
  const std::string rows_before = Rows(*inst.db);
  auto pinned = inst.db->CreateContext();
  pinned->PinReadSnapshot(inst.db->OpenSnapshot());
  auto plan = inst.uf->Prepare(fixtures::PaperUpdate(8), nullptr, pinned.get());
  const CheckReport report = inst.uf->Execute(*plan, {}, pinned.get());
  EXPECT_EQ(report.outcome, CheckOutcome::kInvalid) << report.Describe();
  EXPECT_EQ(pinned->undo_log_size(), 0u);
  EXPECT_EQ(Rows(*inst.db), rows_before);
}

}  // namespace
}  // namespace ufilter
