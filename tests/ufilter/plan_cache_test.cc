// Plan cache behavior: updates of one shape compile once, LRU eviction
// order, cached rejections skip STAR, a cached shape serves each request its
// own values, and plans cannot leak across UFilter instances (view
// re-creation invalidates them).
#include <gtest/gtest.h>

#include "fixtures/bookdb.h"
#include "fixtures/tpch_views.h"
#include "obs/metrics.h"
#include "relational/sqlgen.h"
#include "relational/tpch.h"
#include "ufilter/checker.h"
#include "xquery/normalize.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::Translatability;
using check::UFilter;

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = fixtures::MakeBookDatabase();
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    auto uf = UFilter::Create(db_.get(), fixtures::BookViewQuery());
    ASSERT_TRUE(uf.ok()) << uf.status().ToString();
    uf_ = std::move(*uf);
  }

  std::unique_ptr<relational::Database> db_;
  std::unique_ptr<UFilter> uf_;
};

TEST_F(PlanCacheTest, FreshReportReadsAsNotRun) {
  CheckReport report;
  EXPECT_EQ(report.outcome, CheckOutcome::kNotRun);
  EXPECT_EQ(report.star_class, Translatability::kUnclassified);
  EXPECT_EQ(report.Describe(), "not run");
}

TEST_F(PlanCacheTest, SecondCheckDoesZeroCompileWork) {
  CheckOptions options;
  options.apply = false;
  CheckReport first = uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(first.outcome, CheckOutcome::kExecuted) << first.Describe();
  EXPECT_FALSE(first.from_plan_cache);

  obs::CounterWindow counters(db_->registry());
  CheckReport second = uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(second.outcome, CheckOutcome::kExecuted) << second.Describe();
  EXPECT_TRUE(second.from_plan_cache);
  EXPECT_EQ(counters.Delta("engine_updates_compiled"), 0u)
      << "re-parsed a cached template";
  EXPECT_EQ(counters.Delta("engine_star_checks"), 0u)
      << "re-ran STAR for a cached template";
  EXPECT_EQ(counters.Delta("plan_cache_hits"), 1u);
  EXPECT_EQ(counters.Delta("plan_cache_misses"), 0u);
  // Outcomes are identical to the cold run.
  EXPECT_EQ(second.star_class, first.star_class);
  EXPECT_EQ(second.rows_affected, first.rows_affected);
}

TEST_F(PlanCacheTest, WhitespaceVariantsShareOnePlan) {
  CheckOptions options;
  options.apply = false;
  (void)uf_->Check(fixtures::PaperUpdate(8), options);
  // Same update with different layout: must hit.
  std::string variant = fixtures::PaperUpdate(8);
  for (size_t pos = variant.find('\n'); pos != std::string::npos;
       pos = variant.find('\n', pos + 3)) {
    variant.replace(pos, 1, "\n\t ");
  }
  obs::CounterWindow counters(db_->registry());
  CheckReport r = uf_->Check(variant, options);
  EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  EXPECT_TRUE(r.from_plan_cache);
  EXPECT_EQ(counters.Delta("plan_cache_hits"), 1u);
}

TEST_F(PlanCacheTest, CachedUntranslatableRejectedWithoutStar) {
  CheckReport first = uf_->Check(fixtures::PaperUpdate(2));
  EXPECT_EQ(first.outcome, CheckOutcome::kUntranslatable) << first.Describe();

  obs::CounterWindow counters(db_->registry());
  CheckReport second = uf_->Check(fixtures::PaperUpdate(2));
  EXPECT_EQ(second.outcome, CheckOutcome::kUntranslatable);
  EXPECT_EQ(second.star_class, Translatability::kUntranslatable);
  EXPECT_TRUE(second.from_plan_cache);
  EXPECT_EQ(counters.Delta("engine_star_checks"), 0u);
  EXPECT_EQ(counters.Delta("engine_updates_compiled"), 0u);
}

TEST_F(PlanCacheTest, ParseErrorsAreNeverCached) {
  // A parse error quotes source offsets, so it is the request's own: each
  // malformed text compiles for itself, and none can evict a good plan.
  CheckReport first = uf_->Check("THIS IS NOT AN UPDATE");
  EXPECT_EQ(first.outcome, CheckOutcome::kInvalid);
  CheckReport second = uf_->Check("THIS  IS   NOT AN UPDATE");
  EXPECT_EQ(second.outcome, CheckOutcome::kInvalid);
  EXPECT_FALSE(second.from_plan_cache);
  EXPECT_EQ(second.error.ToString(), first.error.ToString());
  EXPECT_EQ(uf_->plan_cache().size(), 0u);
}

TEST_F(PlanCacheTest, SameShapeDifferentValuesSharesOnePlan) {
  // u11 and u12 differ only in a title: one compile serves both, and each
  // gets its own verdict (data conflict vs zero-tuple warning).
  CheckOptions options;
  options.apply = false;
  CheckReport u11 = uf_->Check(fixtures::PaperUpdate(11), options);
  EXPECT_EQ(u11.outcome, CheckOutcome::kDataConflict) << u11.Describe();
  obs::CounterWindow counters(db_->registry());
  CheckReport u12 = uf_->Check(fixtures::PaperUpdate(12), options);
  EXPECT_TRUE(u12.from_plan_cache);
  EXPECT_EQ(counters.Delta("engine_updates_compiled"), 0u);
  EXPECT_EQ(u12.outcome, CheckOutcome::kExecuted) << u12.Describe();
  EXPECT_TRUE(u12.zero_tuple_warning);
}

// Whitespace inside payload text is part of the value: a cached plan must
// apply exactly the text this request sent, in either order.
TEST(PlanCachePayloadTest, WhitespaceInsidePayloadTextIsKept) {
  relational::tpch::TpchOptions tpch;
  tpch.scale = 0.2;
  auto db = relational::tpch::MakeDatabase(tpch);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto replace = [](const std::string& name) {
    return "FOR $customer IN document(\"V.xml\")/region/nation/customer\n"
           "WHERE $customer/c_custkey/text() = 5\nUPDATE $customer {\n"
           "  REPLACE $customer/c_name WITH <c_name>" +
           name + "</c_name>\n}";
  };
  const std::string spaced = replace("Ann   Lee");
  const std::string single = replace("Ann Lee");
  CheckOptions dry;
  dry.apply = false;
  auto alone = [&](const std::string& text) {
    auto uf = UFilter::Create(db->get(), fixtures::VFailQuery("region"));
    EXPECT_TRUE(uf.ok());
    return relational::UpdateSequenceToSql((*uf)->Check(text, dry).translation);
  };
  const std::string want_spaced = alone(spaced);
  const std::string want_single = alone(single);
  EXPECT_NE(want_spaced.find("'Ann   Lee'"), std::string::npos) << want_spaced;
  EXPECT_NE(want_single.find("'Ann Lee'"), std::string::npos) << want_single;
  for (bool spaced_first : {true, false}) {
    auto uf = UFilter::Create(db->get(), fixtures::VFailQuery("region"));
    ASSERT_TRUE(uf.ok());
    const std::string& a = spaced_first ? spaced : single;
    const std::string& b = spaced_first ? single : spaced;
    CheckReport first = (*uf)->Check(a, dry);
    CheckReport second = (*uf)->Check(b, dry);
    EXPECT_TRUE(second.from_plan_cache);
    EXPECT_EQ(relational::UpdateSequenceToSql(first.translation),
              spaced_first ? want_spaced : want_single);
    EXPECT_EQ(relational::UpdateSequenceToSql(second.translation),
              spaced_first ? want_single : want_spaced);
  }
}

TEST_F(PlanCacheTest, LruEvictionOrder) {
  // Single shard: deterministic global LRU order.
  uf_->plan_cache().Configure(/*capacity=*/2, /*shards=*/1);
  (void)uf_->Prepare(fixtures::PaperUpdate(8));   // A
  (void)uf_->Prepare(fixtures::PaperUpdate(9));   // B
  (void)uf_->Prepare(fixtures::PaperUpdate(12));  // C -> evicts A
  EXPECT_EQ(uf_->plan_cache().size(), 2u);

  obs::CounterWindow counters(db_->registry());
  bool hit = false;
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);  // A is gone
  EXPECT_FALSE(hit);
  EXPECT_EQ(counters.Delta("plan_cache_misses"), 1u);
}

TEST_F(PlanCacheTest, LookupRefreshesRecency) {
  uf_->plan_cache().Configure(/*capacity=*/2, /*shards=*/1);
  (void)uf_->Prepare(fixtures::PaperUpdate(8));  // A
  (void)uf_->Prepare(fixtures::PaperUpdate(9));  // B
  bool hit = false;
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);  // touch A
  ASSERT_TRUE(hit);
  (void)uf_->Prepare(fixtures::PaperUpdate(12));  // C -> evicts B, not A
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);
  EXPECT_TRUE(hit) << "touched entry was evicted before the older one";
  (void)uf_->Prepare(fixtures::PaperUpdate(9), &hit);
  EXPECT_FALSE(hit) << "least-recently-used entry survived eviction";
}

TEST_F(PlanCacheTest, KeysByRecencyReportsMruFirst) {
  uf_->plan_cache().Configure(/*capacity=*/4, /*shards=*/1);
  (void)uf_->Prepare(fixtures::PaperUpdate(8));
  (void)uf_->Prepare(fixtures::PaperUpdate(9));
  std::vector<std::string> keys = uf_->plan_cache().KeysByRecency();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], xq::NormalizeUpdateText(fixtures::PaperUpdate(9)));
  EXPECT_EQ(keys[1], xq::NormalizeUpdateText(fixtures::PaperUpdate(8)));
}

TEST_F(PlanCacheTest, CountersTrackHitsMissesEvictions) {
  uf_->plan_cache().Configure(/*capacity=*/2, /*shards=*/1);
  obs::CounterWindow counters(db_->registry());
  (void)uf_->Prepare(fixtures::PaperUpdate(8));   // miss + insert
  (void)uf_->Prepare(fixtures::PaperUpdate(8));   // hit
  (void)uf_->Prepare(fixtures::PaperUpdate(9));   // miss + insert
  (void)uf_->Prepare(fixtures::PaperUpdate(12));  // miss + insert -> evict
  EXPECT_EQ(counters.Delta("plan_cache_hits"), 1u);
  EXPECT_EQ(counters.Delta("plan_cache_misses"), 3u);
  EXPECT_EQ(counters.Delta("plan_cache_insertions"), 3u);
  EXPECT_EQ(counters.Delta("plan_cache_evictions"), 1u);
}

TEST_F(PlanCacheTest, ShardedCacheStillServesEveryTemplate) {
  // Default shape: sharded. Recency is per shard, but lookups must behave
  // identically: every prepared template is served from the cache.
  EXPECT_GT(uf_->plan_cache().shard_count(), 1u);
  for (int u = 8; u <= 12; ++u) {
    (void)uf_->Prepare(fixtures::PaperUpdate(u));
  }
  for (int u = 8; u <= 12; ++u) {
    bool hit = false;
    (void)uf_->Prepare(fixtures::PaperUpdate(u), &hit);
    EXPECT_TRUE(hit) << "u" << u;
  }
  // u11 and u12 differ only in a literal: five updates, four shapes.
  EXPECT_EQ(uf_->plan_cache().size(), 4u);
}

TEST_F(PlanCacheTest, ClearEmptiesTheCache) {
  (void)uf_->Prepare(fixtures::PaperUpdate(8));
  EXPECT_GT(uf_->plan_cache().size(), 0u);
  uf_->plan_cache().Clear();
  EXPECT_EQ(uf_->plan_cache().size(), 0u);
  bool hit = true;
  (void)uf_->Prepare(fixtures::PaperUpdate(8), &hit);
  EXPECT_FALSE(hit);
}

TEST_F(PlanCacheTest, UsePlanCacheFalseBypassesTheCache) {
  CheckOptions options;
  options.apply = false;
  options.use_plan_cache = false;
  (void)uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(uf_->plan_cache().size(), 0u);
  obs::CounterWindow counters(db_->registry());
  CheckReport r = uf_->Check(fixtures::PaperUpdate(8), options);
  EXPECT_FALSE(r.from_plan_cache);
  EXPECT_EQ(counters.Delta("engine_updates_compiled"), 1u);
  EXPECT_EQ(counters.Delta("plan_cache_hits"), 0u);
  EXPECT_EQ(counters.Delta("plan_cache_misses"), 0u);
}

TEST_F(PlanCacheTest, RecreatedViewInvalidatesOldPlans) {
  auto plan = uf_->Prepare(fixtures::PaperUpdate(8));
  ASSERT_TRUE(plan->parsed());

  // Re-create the U-Filter (same database, same view text): the new
  // instance must reject the old instance's plans and start with a cold
  // cache.
  auto uf2 = UFilter::Create(db_.get(), fixtures::BookViewQuery());
  ASSERT_TRUE(uf2.ok());
  CheckReport stale = (*uf2)->Execute(*plan);
  EXPECT_EQ(stale.outcome, CheckOutcome::kInvalid) << stale.Describe();
  EXPECT_TRUE(stale.error.IsInvalidUpdate());

  obs::CounterWindow counters(db_->registry());
  CheckOptions options;
  options.apply = false;
  CheckReport fresh = (*uf2)->Check(fixtures::PaperUpdate(8), options);
  EXPECT_EQ(fresh.outcome, CheckOutcome::kExecuted) << fresh.Describe();
  EXPECT_FALSE(fresh.from_plan_cache);
  EXPECT_EQ(counters.Delta("plan_cache_misses"), 1u);
}

}  // namespace
}  // namespace ufilter
