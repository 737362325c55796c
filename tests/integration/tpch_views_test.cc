// Integration over the TPC-H substrate: the Section 7.2 views behave as the
// paper describes, end to end (classification, execution, rectangle rule,
// blind-baseline side-effect detection).
#include <gtest/gtest.h>

#include <optional>

#include "fixtures/tpch_views.h"
#include "obs/metrics.h"
#include "relational/tpch.h"
#include "ufilter/blind.h"
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

std::unique_ptr<relational::Database> Db(double scale = 0.2) {
  relational::tpch::TpchOptions options;
  options.scale = scale;
  auto db = relational::tpch::MakeDatabase(options);
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

TEST(TpchViewsTest, VsuccessDeletesUnconditionalAtEveryLevel) {
  struct Case {
    const char* tag;
    int64_t key;
    int64_t min_deleted;
  };
  for (const Case& c : {Case{"region", 0, 1}, Case{"nation", 3, 1},
                        Case{"customer", 5, 1}, Case{"order", 10, 1},
                        Case{"lineitem", 2, 1}}) {
    auto db = Db();
    auto uf = UFilter::Create(db.get(), fixtures::VSuccessQuery());
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    CheckReport r =
        (*uf)->Check(fixtures::DeleteElementUpdate(c.tag, c.key));
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted)
        << c.tag << ": " << r.Describe();
    EXPECT_EQ(r.star_class, Translatability::kUnconditionallyTranslatable)
        << c.tag;
    EXPECT_GE(r.rows_affected, c.min_deleted) << c.tag;
  }
}

TEST(TpchViewsTest, RegionDeleteCascadesThroughAllLevels) {
  auto db = Db();
  size_t before = db->TotalRows();
  auto uf = UFilter::Create(db.get(), fixtures::VSuccessQuery());
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(fixtures::DeleteElementUpdate("region", 0));
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  // Region 0 owns 5 nations and roughly 1/5 of everything below.
  EXPECT_GT(static_cast<size_t>(r.rows_affected), 6u);
  EXPECT_EQ(before - db->TotalRows(), static_cast<size_t>(r.rows_affected));
}

TEST(TpchViewsTest, VfailDeleteOfRepublishedRelationRejected) {
  for (const char* rel : {"region", "nation", "customer"}) {
    auto db = Db(0.1);
    auto uf = UFilter::Create(db.get(), fixtures::VFailQuery(rel));
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    std::string tag = rel;
    if (tag == "orders") tag = "order";
    CheckReport r = (*uf)->Check(fixtures::DeleteElementUpdate(tag, 0));
    EXPECT_EQ(r.outcome, CheckOutcome::kUntranslatable)
        << rel << ": " << r.Describe();
    // Nothing was touched.
    EXPECT_EQ(db->undo_log_size(), 0u);
  }
}

TEST(TpchViewsTest, VfailBlindBaselineDetectsSideEffectAndRollsBack) {
  auto db = Db(0.1);
  size_t before = db->TotalRows();
  auto uf = UFilter::Create(db.get(), fixtures::VFailQuery("region"));
  ASSERT_TRUE(uf.ok());
  auto stmt = xq::ParseUpdate(fixtures::DeleteElementUpdate("region", 0));
  ASSERT_TRUE(stmt.ok());
  auto blind = check::BlindExecute(uf->get(), *stmt);
  ASSERT_TRUE(blind.ok()) << blind.status().ToString();
  EXPECT_TRUE(blind->side_effect);
  EXPECT_EQ(db->TotalRows(), before);  // rolled back
}

TEST(TpchViewsTest, VsuccessBlindBaselineAppliesCleanDelete) {
  auto db = Db(0.1);
  auto uf = UFilter::Create(db.get(), fixtures::VSuccessQuery());
  ASSERT_TRUE(uf.ok());
  auto stmt = xq::ParseUpdate(fixtures::DeleteElementUpdate("nation", 7));
  ASSERT_TRUE(stmt.ok());
  auto blind = check::BlindExecute(uf->get(), *stmt);
  ASSERT_TRUE(blind.ok()) << blind.status().ToString();
  EXPECT_FALSE(blind->side_effect);
  EXPECT_TRUE(blind->applied);
}

TEST(TpchViewsTest, LineitemInsertTranslatesAndAppears) {
  auto db = Db(0.1);
  auto uf = UFilter::Create(db.get(), fixtures::VLinearQuery());
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(fixtures::InsertLineitemUpdate(3, 9));
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_EQ(r.star_class, Translatability::kUnconditionallyTranslatable);
  ASSERT_EQ(r.translation.size(), 1u);
  EXPECT_EQ(r.translation[0].table, "lineitem");
  EXPECT_EQ(r.translation[0].values.at("l_orderkey").AsInt(), 3);
  // The new lineitem is visible in the materialized view.
  auto view = (*uf)->MaterializeView();
  ASSERT_TRUE(view.ok());
  bool found = false;
  std::vector<const xml::Node*> stack = {view->get()};
  while (!stack.empty()) {
    const xml::Node* n = stack.back();
    stack.pop_back();
    if (n->is_element() && n->label() == "lineitem" &&
        n->ChildText("l_linenumber") == "9") {
      found = true;
    }
    for (const auto& c : n->children()) stack.push_back(c.get());
  }
  EXPECT_TRUE(found);
}

TEST(TpchViewsTest, LineitemInsertKeyConflictRejected) {
  auto db = Db(0.1);
  auto uf = UFilter::Create(db.get(), fixtures::VLinearQuery());
  ASSERT_TRUE(uf.ok());
  // Line number 1 of order 3 already exists.
  CheckReport r = (*uf)->Check(fixtures::InsertLineitemUpdate(3, 1));
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
}

TEST(TpchViewsTest, LineitemInsertIntoMissingOrderRejected) {
  auto db = Db(0.1);
  auto uf = UFilter::Create(db.get(), fixtures::VLinearQuery());
  ASSERT_TRUE(uf.ok());
  CheckReport r = (*uf)->Check(fixtures::InsertLineitemUpdate(999999, 9));
  EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict) << r.Describe();
}

TEST(TpchViewsTest, RectangleRuleOnTpch) {
  for (const char* workload :
       {"delete-nation", "delete-order", "insert-lineitem"}) {
    auto db = Db(0.1);
    auto uf = UFilter::Create(db.get(), fixtures::VSuccessQuery());
    ASSERT_TRUE(uf.ok());
    std::string text;
    if (std::string(workload) == "delete-nation") {
      text = fixtures::DeleteElementUpdate("nation", 12);
    } else if (std::string(workload) == "delete-order") {
      text = fixtures::DeleteElementUpdate("order", 42);
    } else {
      text = fixtures::InsertLineitemUpdate(42, 7);
    }
    auto stmt = xq::ParseUpdate(text);
    ASSERT_TRUE(stmt.ok());
    auto expected = (*uf)->MaterializeView();
    ASSERT_TRUE(expected.ok());
    ASSERT_TRUE(check::ApplyUpdateToXml(expected->get(), *stmt).ok());
    CheckReport r = (*uf)->Check(text);
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted)
        << workload << ": " << r.Describe();
    auto actual = (*uf)->MaterializeView();
    ASSERT_TRUE(actual.ok());
    auto diff = view::FirstDifference(**expected, **actual);
    EXPECT_FALSE(diff.has_value()) << workload << ": " << *diff;
  }
}

TEST(TpchViewsTest, VbushDeleteOrderExecutes) {
  auto db = Db(0.1);
  auto uf = UFilter::Create(db.get(), fixtures::VBushQuery());
  ASSERT_TRUE(uf.ok()) << uf.status().ToString();
  CheckReport r = (*uf)->Check(
      "FOR $nation IN document(\"V.xml\")/nation, $order IN $nation/order\n"
      "WHERE $order/o_orderkey/text() = 5\n"
      "UPDATE $nation {\n  DELETE $order\n}");
  ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  // The order plus its 4 lineitems disappear; the customer tuple is shared
  // with the customer's other orders and must survive minimization.
  auto customer = db->GetTable("customer");
  size_t customers = (*customer)->live_row_count();
  EXPECT_EQ(customers, 15u);  // scale 0.1 -> 15 customers, none deleted
}

TEST(TpchViewsTest, DryRunLeavesDatabaseUntouched) {
  auto db = Db(0.1);
  size_t before = db->TotalRows();
  auto uf = UFilter::Create(db.get(), fixtures::VSuccessQuery());
  ASSERT_TRUE(uf.ok());
  check::CheckOptions options;
  options.apply = false;
  CheckReport r = (*uf)->Check(fixtures::DeleteElementUpdate("region", 1),
                               options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_GT(r.rows_affected, 0);
  EXPECT_EQ(db->TotalRows(), before);
}

// The index lookups of one check-only `update` on Vfail (scale 1), run the
// way the check service's fast path runs it: prepared, then checked
// read-only against a pinned snapshot. `extra_nations` nations, one
// customer each, join the generator's 25 first.
uint64_t ReadOnlyCheckLookups(const std::string& update, int extra_nations) {
  auto db = Db(1.0);
  for (int n = 0; n < extra_nations; ++n) {
    const std::string name = "EXTRA_" + std::to_string(n);
    EXPECT_TRUE(db->InsertValues("nation",
                                 {{"n_nationkey", Value::Int(1000 + n)},
                                  {"n_name", Value::String(name)},
                                  {"n_regionkey", Value::Int(n % 5)}})
                    .ok());
    EXPECT_TRUE(db->InsertValues("customer",
                                 {{"c_custkey", Value::Int(100000 + n)},
                                  {"c_name", Value::String(name)},
                                  {"c_nationkey", Value::Int(1000 + n)}})
                    .ok());
  }
  auto uf = UFilter::Create(db.get(), fixtures::VFailQuery("region"));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  if (!uf.ok()) return 0;
  check::CheckOptions dry;
  dry.apply = false;
  auto ctx = db->CreateContext();
  ctx->PinReadSnapshot(db->OpenSnapshot());
  auto plan = (*uf)->Prepare(update, nullptr, ctx.get());
  obs::CounterWindow window(db->registry());
  std::optional<CheckReport> r = (*uf)->TryCheckReadOnly(*plan, dry, ctx.get());
  uint64_t lookups = window.Delta("engine_index_lookups");
  ctx->ClearReadSnapshot();
  EXPECT_TRUE(r.has_value());
  if (r.has_value()) {
    EXPECT_EQ(r->outcome, CheckOutcome::kExecuted) << r->Describe();
    EXPECT_GT(r->rows_affected, 0);
  }
  return lookups;
}

// An order delete's WHERE binds $order, not its context $customer, so the
// context probe region x nation x customer has no filter. Delete only asks
// whether a customer exists: the probe stops at its first row instead of
// making one lookup per region and per nation.
TEST(TpchViewsTest, ReadOnlyOrderDeleteStopsAtTheFirstContextRow) {
  const std::string update = fixtures::DeleteElementUpdate("order", 10);
  uint64_t lookups = ReadOnlyCheckLookups(update, 0);
  EXPECT_EQ(ReadOnlyCheckLookups(update, 50), lookups);
  EXPECT_LT(lookups, 25u);  // fewer than one per nation
}

// The same for an element replace whose WHERE binds a descendant ($order)
// of its context ($customer).
TEST(TpchViewsTest, ReadOnlyReplaceStopsAtTheFirstContextRow) {
  const std::string update =
      "FOR $root IN document(\"V.xml\"), $region IN $root/region,\n"
      "    $nation IN $region/nation, $customer IN $nation/customer,\n"
      "    $order IN $customer/order\n"
      "WHERE $order/o_orderkey/text() = 10\n"
      "UPDATE $customer {\n"
      "  REPLACE $order WITH <order><o_orderkey>10</o_orderkey>"
      "<o_totalprice>7.50</o_totalprice></order>\n"
      "}";
  uint64_t lookups = ReadOnlyCheckLookups(update, 0);
  EXPECT_EQ(ReadOnlyCheckLookups(update, 50), lookups);
  EXPECT_LT(lookups, 25u);
}

TEST(TpchViewsTest, MarkingIsCheapRelativeToData) {
  auto db = Db(0.5);
  auto uf = UFilter::Create(db.get(), fixtures::VSuccessQuery());
  ASSERT_TRUE(uf.ok());
  // The paper reports 0.12s/0.15s marking on 2005 hardware; ours must be
  // well under that.
  EXPECT_LT((*uf)->marking_seconds(), 0.15);
}

}  // namespace
}  // namespace ufilter
