// Cold against cached throughput of the prepared-update architecture:
// updates/sec for the same delete workload through two paths —
//   - Cold:   every Check compiles from scratch (plan cache bypassed),
//   - Cached: Check hits the plan cache (zero parse/bind/STAR per update).
// perfbench's check_cold workload hits the plan cache on every request
// (shapes are literal-lifted), so these two series are the one measurement
// of a compile against a cache hit. Measured (Release, shared 4-vCPU VM):
// Cold ~22-24k, Cached ~100-107k updates/s; see docs/BENCHMARKS.md.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "ufilter/checker.h"

namespace {

using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;
using ufilter::check::UFilter;
using ufilter::obs::CounterWindow;

constexpr int kDepth = 4;
constexpr int kRowsPerLevel = 200;
constexpr int kUpdates = 64;

struct Setup {
  std::unique_ptr<ufilter::relational::Database> db;
  std::unique_ptr<UFilter> uf;
  std::vector<std::string> updates;  // kUpdates distinct leaf deletes
};

Setup& SharedSetup() {
  static Setup setup = [] {
    Setup s;
    auto db = ufilter::fixtures::MakeChainDatabase(kDepth, kRowsPerLevel);
    if (db.ok()) s.db = std::move(*db);
    auto uf = UFilter::Create(s.db.get(),
                              ufilter::fixtures::ChainViewQuery(kDepth));
    if (uf.ok()) s.uf = std::move(*uf);
    for (int k = 0; k < kUpdates; ++k) {
      s.updates.push_back(ufilter::fixtures::ChainDeleteUpdate(kDepth - 1, k));
    }
    return s;
  }();
  return setup;
}

/// The work of one run: `counters` opened on the database registry at the
/// start of the scenario.
void ReportCounters(benchmark::State& state, const CounterWindow& counters,
                    int64_t updates_checked) {
  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  if (updates_checked > 0) {
    state.counters["probe_queries_per_update"] =
        delta("engine_queries_executed") /
        static_cast<double>(updates_checked);
  }
  state.counters["plan_cache_hits"] = delta("plan_cache_hits");
  state.counters["updates_compiled"] = delta("engine_updates_compiled");
  state.counters["plan_cache_misses"] = delta("plan_cache_misses");
  state.counters["plan_cache_evictions"] = delta("plan_cache_evictions");
  state.SetItemsProcessed(updates_checked);
}

void BM_Cold(benchmark::State& state) {
  Setup& setup = SharedSetup();
  CheckOptions options;
  options.apply = false;
  options.use_plan_cache = false;
  // Scenario isolation: counters are read as the movement of this series.
  CounterWindow counters(setup.db->registry());
  int64_t checked = 0;
  size_t next = 0;
  for (auto _ : state) {
    const std::string& update = setup.updates[next];
    next = (next + 1) % setup.updates.size();
    CheckReport r = setup.uf->Check(update, options);
    if (r.outcome != CheckOutcome::kExecuted) {
      state.SkipWithError(r.Describe().c_str());
      return;
    }
    ++checked;
    benchmark::DoNotOptimize(r);
  }
  ReportCounters(state, counters, checked);
}

void BM_Cached(benchmark::State& state) {
  Setup& setup = SharedSetup();
  CheckOptions options;
  options.apply = false;
  // Warm the plan cache outside the timed region.
  setup.uf->plan_cache().Clear();
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }
  CounterWindow counters(setup.db->registry());
  int64_t checked = 0;
  size_t next = 0;
  for (auto _ : state) {
    const std::string& update = setup.updates[next];
    next = (next + 1) % setup.updates.size();
    CheckReport r = setup.uf->Check(update, options);
    if (r.outcome != CheckOutcome::kExecuted) {
      state.SkipWithError(r.Describe().c_str());
      return;
    }
    ++checked;
    benchmark::DoNotOptimize(r);
  }
  ReportCounters(state, counters, checked);
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Batch throughput: cold vs. cached ===\n"
      "Workload: %d distinct leaf deletes over a depth-%d chain view\n"
      "(apply=false), checked one at a time. Cold re-compiles per check;\n"
      "Cached hits the plan cache.\n"
      "Measured (Release, shared 4-vCPU VM): items_per_second Cold\n"
      "~22-24k < Cached ~100-107k.\n\n",
      kUpdates, kDepth);
  benchmark::RegisterBenchmark("BatchThroughput/Cold", BM_Cold);
  benchmark::RegisterBenchmark("BatchThroughput/Cached", BM_Cached);
  return ufilter::bench::RunWithJson(argc, argv, "batch_throughput");
}
