#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "../support/mini_json.h"
#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "service/check_service.h"

namespace ufilter::obs {
namespace {

using ufilter::test_support::JsonValue;
using ufilter::test_support::MiniJsonParser;

const std::set<std::string>& StageTaxonomy() {
  static const std::set<std::string> names = [] {
    std::set<std::string> s;
    for (size_t i = 0; i < kStageCount; ++i) {
      s.insert(StageName(static_cast<Stage>(i)));
    }
    return s;
  }();
  return names;
}

TEST(TraceTest, StageTaxonomyIsFixed) {
  EXPECT_EQ(kStageCount, 8u);
  EXPECT_EQ(StageTaxonomy().size(), kStageCount);  // names are distinct
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(Stage::kResponseWrite), "response_write");
}

TEST(TraceTest, InactiveContextIsANoOp) {
  TraceContext t;  // default-constructed: inactive
  EXPECT_FALSE(t.active());
  auto now = TraceClock::now();
  t.RecordSpan(Stage::kProbe, now, now + std::chrono::microseconds(5));
  t.RecordDuration(Stage::kApply, 1234);
  EXPECT_EQ(t.StageTotalNs(Stage::kProbe), 0u);
  EXPECT_EQ(t.StageTotalNs(Stage::kApply), 0u);
  { ScopedSpan span(&t, Stage::kCompile); }
  { ScopedSpan null_span(nullptr, Stage::kCompile); }
  EXPECT_TRUE(t.spans().empty());
}

TEST(TraceTest, UnsampledAccumulatesTotalsWithoutSpans) {
  Tracer::Options opts;
  opts.sample_every = 0;  // full traces off
  Tracer tracer(opts);
  TraceContext t = tracer.Begin(1);
  EXPECT_TRUE(t.active());
  EXPECT_FALSE(t.sampled());
  auto now = TraceClock::now();
  t.RecordSpan(Stage::kProbe, now, now + std::chrono::microseconds(3));
  EXPECT_GE(t.StageTotalNs(Stage::kProbe), 3000u);
  EXPECT_TRUE(t.spans().empty());
  tracer.Finish(t);
  EXPECT_FALSE(t.active());
  EXPECT_GT(t.total_ns(), 0u);
  EXPECT_EQ(tracer.sampled_count(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  // Finish is idempotent.
  uint64_t total = t.total_ns();
  tracer.Finish(t);
  EXPECT_EQ(t.total_ns(), total);
}

TEST(TraceTest, SampledSpansLandInRing) {
  Tracer::Options opts;
  opts.sample_every = 1;
  opts.ring_capacity = 3;
  Tracer tracer(opts);
  for (uint64_t id = 1; id <= 5; ++id) {
    TraceContext t = tracer.Begin(id);
    ASSERT_TRUE(t.sampled());
    auto b = t.born();
    t.RecordSpanLane(Stage::kProbe, b + std::chrono::microseconds(1),
                     b + std::chrono::microseconds(4), 7);
    tracer.Finish(t);
  }
  EXPECT_EQ(tracer.sampled_count(), 5u);
  std::vector<CompletedTrace> ring = tracer.Snapshot();
  // Ring bounded at capacity, keeping the newest.
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.front().request_id, 3u);
  EXPECT_EQ(ring.back().request_id, 5u);
  ASSERT_EQ(ring.back().spans.size(), 1u);
  EXPECT_EQ(ring.back().spans[0].lane, 7u);
  EXPECT_EQ(ring.back().spans[0].stage, Stage::kProbe);
  EXPECT_GE(ring.back().spans[0].dur_ns, 3000u);
}

TEST(TraceTest, SamplesOneInM) {
  Tracer::Options opts;
  opts.sample_every = 4;
  Tracer tracer(opts);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    TraceContext t = tracer.Begin(static_cast<uint64_t>(i));
    if (t.sampled()) ++sampled;
    tracer.Finish(t);
  }
  EXPECT_EQ(sampled, 4);
}

// Validates a Chrome trace-event document: overall shape, span names from
// the fixed taxonomy, ph=="X", and per-tid tracks that are monotonic and
// non-overlapping (what chrome://tracing / Perfetto require to render).
void ValidateChromeTrace(const std::string& json, size_t expect_min_events) {
  JsonValue doc;
  std::string err;
  ASSERT_TRUE(MiniJsonParser::Parse(json, &doc, &err)) << err;
  const JsonValue* events = doc.Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_GE(events->arr.size(), expect_min_events);
  // Group by tid, then check each track.
  std::map<double, std::vector<std::pair<double, double>>> tracks;
  for (const JsonValue& e : events->arr) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* name = e.Get("name");
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(StageTaxonomy().count(name->str) == 1)
        << "unknown span name: " << name->str;
    const JsonValue* ph = e.Get("ph");
    ASSERT_NE(ph, nullptr);
    EXPECT_EQ(ph->str, "X");
    const JsonValue* cat = e.Get("cat");
    ASSERT_NE(cat, nullptr);
    EXPECT_EQ(cat->str, "check");
    const JsonValue* ts = e.Get("ts");
    const JsonValue* dur = e.Get("dur");
    const JsonValue* tid = e.Get("tid");
    const JsonValue* pid = e.Get("pid");
    ASSERT_TRUE(ts != nullptr && ts->is_number());
    ASSERT_TRUE(dur != nullptr && dur->is_number());
    ASSERT_TRUE(tid != nullptr && tid->is_number());
    ASSERT_TRUE(pid != nullptr && pid->is_number());
    EXPECT_GE(ts->num, 0.0);
    EXPECT_GE(dur->num, 0.0);
    const JsonValue* args = e.Get("args");
    ASSERT_TRUE(args != nullptr && args->is_object());
    ASSERT_NE(args->Get("request_id"), nullptr);
    tracks[tid->num].push_back({ts->num, dur->num});
  }
  for (auto& [tid, spans] : tracks) {
    std::sort(spans.begin(), spans.end());
    for (size_t i = 1; i < spans.size(); ++i) {
      // Non-overlap with a hair of tolerance for the µs text rounding.
      EXPECT_GE(spans[i].first + 0.002,
                spans[i - 1].first + spans[i - 1].second)
          << "overlapping spans on tid " << tid;
    }
  }
}

TEST(TraceTest, ExportChromeJsonHandcrafted) {
  Tracer::Options opts;
  opts.sample_every = 1;
  Tracer tracer(opts);
  for (uint64_t id = 1; id <= 3; ++id) {
    TraceContext t = tracer.Begin(id);
    auto b = t.born();
    t.RecordSpanLane(Stage::kQueueWait, b, b + std::chrono::microseconds(2),
                     0);
    t.RecordSpanLane(Stage::kSnapshotPin, b + std::chrono::microseconds(2),
                     b + std::chrono::microseconds(3), 1);
    t.RecordSpanLane(Stage::kProbe, b + std::chrono::microseconds(3),
                     b + std::chrono::microseconds(9), 1);
    tracer.Finish(t);
  }
  ValidateChromeTrace(tracer.ExportChromeJson(), 9);
  // Empty ring still exports a valid (empty) document.
  Tracer empty;
  JsonValue doc;
  ASSERT_TRUE(MiniJsonParser::Parse(empty.ExportChromeJson(), &doc));
  ASSERT_NE(doc.Get("traceEvents"), nullptr);
  EXPECT_TRUE(doc.Get("traceEvents")->arr.empty());
}

// End to end: a real CheckService with sample_every=1 produces sampled
// traces whose spans cover the read path, stage histograms fill in, and
// the export is a valid Chrome document.
TEST(TraceServiceTest, ServiceTracesEndToEnd) {
  constexpr int kDepth = 3;
  auto db = ufilter::fixtures::MakeChainDatabase(kDepth, 32);
  ASSERT_TRUE(db.ok());
  auto uf = check::UFilter::Create(db->get(),
                                   ufilter::fixtures::ChainViewQuery(kDepth));
  ASSERT_TRUE(uf.ok());

  service::CheckServiceOptions opts;
  opts.worker_threads = 2;
  opts.trace.sample_every = 1;
  service::CheckService svc(uf->get(), opts);
  auto session = svc.OpenSession("tracer");

  check::CheckOptions dry;
  dry.apply = false;
  check::CheckOptions apply;  // writer lane: covers apply + wal_sync spans
  constexpr int kChecks = 24;
  for (int i = 0; i < kChecks; ++i) {
    auto report =
        svc.Submit(session,
                   ufilter::fixtures::ChainDeleteUpdate(kDepth - 1, i % 8),
                   dry)
            .get();
    ASSERT_EQ(report.outcome, check::CheckOutcome::kExecuted);
  }
  auto applied =
      svc.Submit(session,
                 ufilter::fixtures::ChainReplaceUpdate(kDepth - 1, 0, "t0"),
                 apply)
          .get();
  ASSERT_EQ(applied.outcome, check::CheckOutcome::kExecuted);

  EXPECT_EQ(svc.tracer().sampled_count(),
            static_cast<uint64_t>(kChecks) + 1);
  std::vector<CompletedTrace> traces = svc.tracer().Snapshot();
  ASSERT_EQ(traces.size(), static_cast<size_t>(kChecks) + 1);
  // A read-only check's trace must show the fast path: queue_wait,
  // snapshot_pin, plan_cache, probe. Distinct request ids throughout.
  std::set<uint64_t> ids;
  for (const CompletedTrace& t : traces) ids.insert(t.request_id);
  EXPECT_EQ(ids.size(), traces.size());
  std::set<Stage> seen;
  for (const CompletedTrace& t : traces) {
    EXPECT_GT(t.total_ns, 0u);
    ASSERT_FALSE(t.spans.empty());
    for (const TraceSpan& s : t.spans) seen.insert(s.stage);
  }
  EXPECT_TRUE(seen.count(Stage::kQueueWait));
  EXPECT_TRUE(seen.count(Stage::kSnapshotPin));
  EXPECT_TRUE(seen.count(Stage::kPlanCache));
  EXPECT_TRUE(seen.count(Stage::kProbe));
  // The apply went through the writer lane: its trace shows apply+wal_sync.
  EXPECT_TRUE(seen.count(Stage::kApply));
  EXPECT_TRUE(seen.count(Stage::kWalSync));

  ValidateChromeTrace(svc.tracer().ExportChromeJson(), traces.size());

  // The always-on stage histograms saw every request.
  obs::RegistrySnapshot reg = svc.registry().Collect();
  const obs::MetricSample* lat = obs::FindSample(reg, "check_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, static_cast<uint64_t>(kChecks) + 1);
  const obs::MetricSample* probe = obs::FindSample(reg, "stage_probe_ns");
  ASSERT_NE(probe, nullptr);
  EXPECT_GT(probe->hist.count, 0u);
  const obs::MetricSample* qw = obs::FindSample(reg, "stage_queue_wait_ns");
  ASSERT_NE(qw, nullptr);
  EXPECT_EQ(qw->hist.count, static_cast<uint64_t>(kChecks) + 1);
}

// metrics_enabled=false must not break anything — and must record nothing.
TEST(TraceServiceTest, MetricsDisabledServiceStillServes) {
  constexpr int kDepth = 3;
  auto db = ufilter::fixtures::MakeChainDatabase(kDepth, 16);
  ASSERT_TRUE(db.ok());
  auto uf = check::UFilter::Create(db->get(),
                                   ufilter::fixtures::ChainViewQuery(kDepth));
  ASSERT_TRUE(uf.ok());
  service::CheckServiceOptions opts;
  opts.worker_threads = 1;
  opts.metrics_enabled = false;
  service::CheckService svc(uf->get(), opts);
  auto session = svc.OpenSession();
  check::CheckOptions dry;
  dry.apply = false;
  for (int i = 0; i < 8; ++i) {
    auto report =
        svc.Submit(session,
                   ufilter::fixtures::ChainDeleteUpdate(kDepth - 1, i), dry)
            .get();
    ASSERT_EQ(report.outcome, check::CheckOutcome::kExecuted);
  }
  EXPECT_EQ(svc.StartTrace(), nullptr);
  EXPECT_EQ(svc.tracer().sampled_count(), 0u);
  obs::RegistrySnapshot reg = svc.registry().Collect();
  const obs::MetricSample* lat = obs::FindSample(reg, "check_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->hist.count, 0u);  // the clock was never read
  // Plain counters stay on regardless.
  const obs::MetricSample* completed =
      obs::FindSample(reg, "service_completed");
  ASSERT_NE(completed, nullptr);
  EXPECT_EQ(completed->value, 8u);
  const obs::MetricSample* queue_wait =
      obs::FindSample(reg, "stage_queue_wait_ns");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->hist.Percentile(50), 0u);
}

}  // namespace
}  // namespace ufilter::obs
