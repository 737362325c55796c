// Observability overhead: the cached-check service path with the metrics
// layer off vs. on. "On" is the production default — per-check latency
// histogram, per-stage histograms, queue-wait timestamps, and a
// TraceContext per request (stage totals always, full span capture only
// 1-in-64). "Off" (CheckServiceOptions::metrics_enabled = false) reads
// the clock only for the reader/writer wait counters: no TraceContext is
// created and no histogram is touched (plain counters stay on either way —
// one relaxed add each).
//
// BM_CachedCheck runs the comparison as paired rounds in one process: each
// round sends the same 256 cached checks through a metrics-off and a
// metrics-on service, in alternating order, and times each half by process
// CPU. A round's ratio is CPU(off)/CPU(on); the gate (compare_bench.py
// --counter-min, CI Release job) requires the median over the rounds to
// stay >= 0.97, i.e. under 3% overhead. Host noise moves a round's two
// halves together or spoils one ratio, so the median of paired ratios is
// steady where two separate runs, one per side, are not.
//
// BM_HistogramRecord / BM_HistogramSnapshot are the micro views: one
// Record is a branchless-ish upper_bound over 63 bounds plus three relaxed
// atomic adds (single-digit ns), and a 64-bucket snapshot+percentile is
// microseconds — nothing that can show up at check-path scale.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
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
constexpr int kRounds = 200;
constexpr int kWarmupRounds = 10;

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

CheckServiceOptions ServiceOptions(bool metrics_on) {
  CheckServiceOptions options;
  options.worker_threads = 2;
  options.queue_capacity = kChecksPerIter;
  options.metrics_enabled = metrics_on;
  return options;
}

uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One half of a round: kChecksPerIter cached check-only requests through
// `svc`, waiting for every verdict. Returns the process CPU it took, or
// nullopt (with the report in `error`) on a wrong verdict.
std::optional<uint64_t> TimedChecks(CheckService& svc,
                                    const std::shared_ptr<Session>& session,
                                    const std::vector<std::string>& updates,
                                    std::string* error) {
  CheckOptions dry;
  dry.apply = false;
  std::vector<std::future<CheckReport>> futures;
  futures.reserve(kChecksPerIter);
  const uint64_t start = ProcessCpuNs();
  for (int i = 0; i < kChecksPerIter; ++i) {
    futures.push_back(svc.Submit(
        session, updates[static_cast<size_t>(i) % updates.size()], dry));
  }
  for (auto& f : futures) {
    CheckReport r = f.get();
    if (r.outcome != CheckOutcome::kExecuted) {
      *error = r.Describe();
      return std::nullopt;
    }
  }
  return ProcessCpuNs() - start;
}

// The gated comparison: kRounds paired rounds, metrics off vs. on.
void BM_CachedCheck(benchmark::State& state) {
  Setup& setup = SharedSetup();
  CheckService off(setup.uf.get(), ServiceOptions(false));
  CheckService on(setup.uf.get(), ServiceOptions(true));
  CheckService* services[2] = {&off, &on};
  std::shared_ptr<Session> sessions[2] = {off.OpenSession(),
                                          on.OpenSession()};

  // Warm the plan cache so the timed rounds are the pure cached path.
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }

  std::vector<double> ratios;
  std::vector<double> cpu_ns[2];
  for (auto _ : state) {
    for (int round = 0; round < kWarmupRounds + kRounds; ++round) {
      uint64_t ns[2] = {0, 0};
      for (int half = 0; half < 2; ++half) {
        // Alternate which side runs first, so neither always runs warm.
        const int side = (round + half) % 2;
        std::string error;
        std::optional<uint64_t> took = TimedChecks(
            *services[side], sessions[side], setup.updates, &error);
        if (!took.has_value()) {
          state.SkipWithError(error.c_str());
          return;
        }
        ns[side] = *took;
      }
      // The first rounds warm caches, the allocator and the histograms.
      if (round < kWarmupRounds) continue;
      for (int side = 0; side < 2; ++side) {
        cpu_ns[side].push_back(static_cast<double>(ns[side]) /
                               kChecksPerIter);
      }
      ratios.push_back(static_cast<double>(ns[0]) /
                       static_cast<double>(ns[1]));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(ratios.size()) * 2 *
                          kChecksPerIter);
  state.counters["rounds"] = static_cast<double>(ratios.size());
  state.counters["off_on_cpu_ratio"] = Median(ratios);
  state.counters["off_cpu_ns_per_check"] = Median(cpu_ns[0]);
  state.counters["on_cpu_ns_per_check"] = Median(cpu_ns[1]);
  auto registry = on.registry().Collect();
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
      static_cast<double>(on.tracer().sampled_count());
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
      "(apply=false), 2 workers per service. BM_CachedCheck runs %d paired\n"
      "rounds of %d checks: each round times the same checks by process CPU\n"
      "through a service with metrics_enabled=false (the clock is read only\n"
      "for the reader/writer wait counters) and one with the production\n"
      "default (latency + stage histograms, queue-wait timing, 1-in-64 trace\n"
      "sampling), in alternating order. The CI gate requires the median\n"
      "per-round CPU(off)/CPU(on), off_on_cpu_ratio, >= 0.97, i.e. <3%%\n"
      "overhead.\n\n",
      kBatchSize, kDepth, kRounds, kChecksPerIter);
  benchmark::RegisterBenchmark("BM_CachedCheck", BM_CachedCheck)
      ->Iterations(1)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("BM_HistogramRecord", BM_HistogramRecord);
  benchmark::RegisterBenchmark("BM_HistogramSnapshot", BM_HistogramSnapshot);
  return ufilter::bench::RunWithJson(argc, argv, "obs");
}
