// Observability overhead: the cached-check service path with the metrics
// layer off (BM_CachedCheck/0) vs. on (BM_CachedCheck/1). "On" is the
// production default — per-check latency histogram, per-stage histograms,
// queue-wait timestamps, and a TraceContext per request (stage totals
// always, full span capture only 1-in-64). "Off" never reads the clock on
// the check path: no TraceContext is created and no histogram is touched
// (plain counters stay on either way — one relaxed add each). The
// acceptance gate (compare_bench.py --pair, CI Release job) requires the
// "on" mean to stay within 3% of "off", i.e. mean(off)/mean(on) >= 0.97.
//
// BM_HistogramRecord / BM_HistogramSnapshot are the micro views: one
// Record is a branchless-ish upper_bound over 63 bounds plus three relaxed
// atomic adds (single-digit ns), and a 64-bucket snapshot+percentile is
// microseconds — nothing that can show up at check-path scale.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "service/check_service.h"

namespace {

using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;
using ufilter::check::UFilter;
using ufilter::service::CheckService;
using ufilter::service::CheckServiceOptions;
using ufilter::service::Session;

constexpr int kDepth = 4;
constexpr int kRowsPerLevel = 200;
constexpr int kBatchSize = 64;
constexpr int kChecksPerIter = 256;

struct Setup {
  std::unique_ptr<ufilter::relational::Database> db;
  std::unique_ptr<UFilter> uf;
  std::vector<std::string> updates;
};

Setup& SharedSetup() {
  static Setup setup = [] {
    Setup s;
    auto db = ufilter::fixtures::MakeChainDatabase(kDepth, kRowsPerLevel);
    if (db.ok()) s.db = std::move(*db);
    auto uf = UFilter::Create(s.db.get(),
                              ufilter::fixtures::ChainViewQuery(kDepth));
    if (uf.ok()) s.uf = std::move(*uf);
    for (int k = 0; k < kBatchSize; ++k) {
      s.updates.push_back(ufilter::fixtures::ChainDeleteUpdate(kDepth - 1, k));
    }
    return s;
  }();
  return setup;
}

// The gated pair: identical cached check-only workload, metrics layer off
// (range 0) or on with production defaults (range 1).
void BM_CachedCheck(benchmark::State& state) {
  Setup& setup = SharedSetup();
  const bool metrics_on = state.range(0) != 0;
  CheckOptions dry;
  dry.apply = false;

  CheckServiceOptions options;
  options.worker_threads = 2;
  options.queue_capacity = kChecksPerIter;
  options.metrics_enabled = metrics_on;
  CheckService svc(setup.uf.get(), options);
  auto session = svc.OpenSession();

  // Warm the plan cache so the timed region is the pure cached path.
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }

  int64_t checked = 0;
  std::vector<std::future<CheckReport>> futures;
  futures.reserve(kChecksPerIter);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < kChecksPerIter; ++i) {
      futures.push_back(svc.Submit(
          session, setup.updates[static_cast<size_t>(i) % setup.updates.size()],
          dry));
    }
    for (auto& f : futures) {
      CheckReport r = f.get();
      if (r.outcome != CheckOutcome::kExecuted) {
        state.SkipWithError(r.Describe().c_str());
        return;
      }
      ++checked;
    }
  }
  state.SetItemsProcessed(checked);
  state.counters["metrics_enabled"] = metrics_on ? 1 : 0;
  if (metrics_on) {
    auto registry = svc.registry().Collect();
    const ufilter::obs::MetricSample* lat =
        ufilter::obs::FindSample(registry, "check_latency_ns");
    if (lat != nullptr) {
      state.counters["check_p50_ns"] =
          static_cast<double>(lat->hist.Percentile(50));
      state.counters["check_p99_ns"] =
          static_cast<double>(lat->hist.Percentile(99));
    }
    const ufilter::obs::MetricSample* queue_wait =
        ufilter::obs::FindSample(registry, "stage_queue_wait_ns");
    if (queue_wait != nullptr) {
      state.counters["queue_wait_p99_ns"] =
          static_cast<double>(queue_wait->hist.Percentile(99));
    }
    state.counters["traces_sampled"] =
        static_cast<double>(svc.tracer().sampled_count());
  }
}

// One histogram Record: bucket search + three relaxed atomic adds.
void BM_HistogramRecord(benchmark::State& state) {
  ufilter::obs::Histogram h;
  uint64_t v = 17;
  for (auto _ : state) {
    h.Record(v);
    v = v * 2862933555777941757ull + 3037000493ull;  // cheap LCG spread
    v &= (1ull << 30) - 1;
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(h.Snapshot().count);
}

// One snapshot + p99 over a populated 64-bucket histogram.
void BM_HistogramSnapshot(benchmark::State& state) {
  ufilter::obs::Histogram h;
  for (uint64_t i = 0; i < 100000; ++i) h.Record(i * 13 % 2000000);
  for (auto _ : state) {
    auto snap = h.Snapshot();
    benchmark::DoNotOptimize(snap.Percentile(99));
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Observability overhead: metrics off vs. on ===\n"
      "Workload: %d cached leaf-delete templates over a depth-%d chain view\n"
      "(apply=false), %d checks per iteration, 2 workers. BM_CachedCheck/0\n"
      "runs with metrics_enabled=false (no clock reads on the check path);\n"
      "BM_CachedCheck/1 is the production default (latency + stage\n"
      "histograms, queue-wait timing, 1-in-64 trace sampling). The CI gate\n"
      "requires mean(/0)/mean(/1) >= 0.97, i.e. <3%% overhead.\n\n",
      kBatchSize, kDepth, kChecksPerIter);
  benchmark::RegisterBenchmark("BM_CachedCheck", BM_CachedCheck)
      ->Arg(0)
      ->Arg(1)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("BM_HistogramRecord", BM_HistogramRecord);
  benchmark::RegisterBenchmark("BM_HistogramSnapshot", BM_HistogramSnapshot);
  return ufilter::bench::RunWithJson(argc, argv, "obs");
}
