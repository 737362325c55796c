// Thread scaling of the concurrent check service: checks/sec for the
// cached-plan workload of bench_batch_throughput (64 distinct leaf deletes
// over a depth-4 chain view, apply=false) pushed through a CheckService
// with 1 / 2 / 4 / 8 worker threads. Check-only traffic runs on the
// service's snapshot fast path (pinned MVCC epoch, no lock held during
// probes). Measured on a shared 4-vCPU VM: ~57-60k / 61-94k / 134-141k /
// 135-137k checks/s at 1 / 2 / 4 / 8 workers, so throughput stops growing
// at the core count (~2.3x at 4 workers); see docs/BENCHMARKS.md. No
// speedup is asserted. Counters attached per run: fast-path vs.
// writer-lane requests and plan-cache hits, so a scaling regression can be
// told apart from an escalation regression.
//
// MixedChecksOneWriter is the mixed read+write sweep (writers=1): the same
// check workload while one client continuously applies value replacements
// through the writer lane. Snapshot isolation means the checks' only
// synchronization is the snapshot-open mutex: reader_wait_ns_per_iter stays
// ~0 even though the writer commits a new epoch per request. The headline
// acceptance (ISSUE 5) is mixed throughput >= 80% of the read-only sweep at
// the same worker count on a multi-core box; on the single-core container,
// assert via reader_wait_ns ~ 0 instead (see docs/BENCHMARKS.md).
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../tests/support/temp_dir.h"
#include "fixtures/synthetic.h"
#include "relational/wal.h"
#include "service/check_service.h"

namespace {

using ufilter::check::CheckOptions;
using ufilter::check::CheckOutcome;
using ufilter::check::CheckReport;
using ufilter::check::UFilter;
using ufilter::service::CheckService;
using ufilter::obs::CounterWindow;
using ufilter::service::CheckServiceOptions;
using ufilter::service::Session;

constexpr int kDepth = 4;
constexpr int kRowsPerLevel = 200;
constexpr int kBatchSize = 64;     // the PR 2 batch workload
constexpr int kChecksPerIter = 512;

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

void BM_ConcurrentChecks(benchmark::State& state) {
  Setup& setup = SharedSetup();
  const int threads = static_cast<int>(state.range(0));
  CheckOptions dry;
  dry.apply = false;

  CheckServiceOptions options;
  options.worker_threads = threads;
  options.queue_capacity = kChecksPerIter;
  CheckService svc(setup.uf.get(), options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < threads; ++t) sessions.push_back(svc.OpenSession());

  // Warm the plan cache outside the timed region (cached-plan workload).
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }

  CounterWindow counters(svc.registry());
  int64_t checked = 0;
  std::vector<std::future<CheckReport>> futures;
  futures.reserve(kChecksPerIter);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < kChecksPerIter; ++i) {
      const std::string& update =
          setup.updates[static_cast<size_t>(i) % setup.updates.size()];
      futures.push_back(svc.Submit(
          sessions[static_cast<size_t>(i) % sessions.size()], update, dry));
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
  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  state.SetItemsProcessed(checked);
  state.counters["worker_threads"] = threads;
  state.counters["writers"] = 0;
  state.counters["fast_path"] = delta("service_fast_path");
  state.counters["writer_lane"] = delta("service_writer_lane");
  state.counters["plan_cache_hits"] = delta("plan_cache_hits");
  state.counters["queue_high_water"] = static_cast<double>(
      ufilter::obs::SampleValue(svc.registry().Collect(), "queue_high_water"));
}

// The mixed sweep: same check workload, plus one writer client saturating
// the writer lane with apply=true value replacements (each one commits a
// new epoch). Checks keep running against their pinned snapshots.
void BM_MixedChecksOneWriter(benchmark::State& state) {
  Setup& setup = SharedSetup();
  const int threads = static_cast<int>(state.range(0));
  CheckOptions dry;
  dry.apply = false;
  CheckOptions apply;  // defaults: apply=true

  CheckServiceOptions options;
  // One extra worker so the writer's lane occupancy never starves the
  // check workers themselves.
  options.worker_threads = threads + 1;
  options.queue_capacity = kChecksPerIter + 64;
  CheckService svc(setup.uf.get(), options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < threads; ++t) sessions.push_back(svc.OpenSession());
  auto writer_session = svc.OpenSession();

  // Writer templates: recolor leaf values in place — repeatable forever,
  // every apply commits one epoch. Two colors per key so the plan cache
  // serves every template after warmup.
  std::vector<std::string> writes;
  for (int k = 0; k < kBatchSize; ++k) {
    writes.push_back(
        ufilter::fixtures::ChainReplaceUpdate(kDepth - 1, k, "w0"));
    writes.push_back(
        ufilter::fixtures::ChainReplaceUpdate(kDepth - 1, k, "w1"));
  }
  for (const std::string& update : setup.updates) {
    (void)setup.uf->Prepare(update);
  }
  for (const std::string& update : writes) {
    (void)setup.uf->Prepare(update);
  }

  std::atomic<bool> stop{false};
  std::atomic<int64_t> commits{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      CheckReport r =
          svc.Submit(writer_session, writes[i++ % writes.size()], apply)
              .get();
      if (r.outcome == CheckOutcome::kExecuted) {
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  CounterWindow counters(svc.registry());
  int64_t checked = 0;
  std::vector<std::future<CheckReport>> futures;
  futures.reserve(kChecksPerIter);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < kChecksPerIter; ++i) {
      const std::string& update =
          setup.updates[static_cast<size_t>(i) % setup.updates.size()];
      futures.push_back(svc.Submit(
          sessions[static_cast<size_t>(i) % sessions.size()], update, dry));
    }
    for (auto& f : futures) {
      CheckReport r = f.get();
      if (r.outcome != CheckOutcome::kExecuted) {
        stop.store(true, std::memory_order_release);
        writer.join();
        state.SkipWithError(r.Describe().c_str());
        return;
      }
      ++checked;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(checked);
  state.counters["worker_threads"] = threads;
  state.counters["writers"] = 1;
  state.counters["writer_commits"] = static_cast<double>(commits.load());
  state.counters["fast_path"] = delta("service_fast_path");
  state.counters["writer_lane"] = delta("service_writer_lane");
  state.counters["epochs_published"] = delta("db_commit_epoch");
  state.counters["versions_retired"] = delta("mvcc_versions_retired");
  // The acceptance counter: time snapshot readers spent blocked, per
  // iteration. Stays ~0 — readers never inherit writer-lane latency.
  state.counters["reader_wait_ns_per_iter"] =
      iters > 0 ? delta("service_reader_wait_ns") / iters : 0;
}

// The mixed sweep again, with the writer's commits logged to a real WAL
// (fsync=group). Reader throughput and reader_wait_ns_per_iter should be
// indistinguishable from MixedChecksOneWriter — WAL file I/O happens
// outside the snapshot mutex and snapshot checks never flush epochs they
// didn't publish. Uses its own (smaller) durable database so the shared
// in-memory setup stays WAL-free.
void BM_MixedChecksOneWriterWal(benchmark::State& state) {
  constexpr int kWalDepth = 3;
  constexpr int kWalRows = 100;
  const int threads = static_cast<int>(state.range(0));
  ufilter::test_support::TempDir tmp("ufilter_bench_conc");
  auto created = ufilter::relational::Database::Create(
      ufilter::fixtures::MakeChainSchema(kWalDepth));
  if (!created.ok()) {
    state.SkipWithError(created.status().ToString().c_str());
    return;
  }
  std::unique_ptr<ufilter::relational::Database> db = std::move(*created);
  ufilter::relational::DurabilityOptions durability;
  durability.wal_path = tmp.path("mixed.wal");
  durability.fsync_policy = ufilter::relational::FsyncPolicy::kGroup;
  durability.group_commit_size = 8;
  ufilter::Status enabled = db->EnableDurability(durability);
  if (!enabled.ok()) {
    state.SkipWithError(enabled.ToString().c_str());
    return;
  }
  ufilter::Status seeded =
      ufilter::fixtures::PopulateChain(db.get(), kWalDepth, kWalRows);
  if (!seeded.ok()) {
    state.SkipWithError(seeded.ToString().c_str());
    return;
  }
  auto uf = UFilter::Create(db.get(),
                            ufilter::fixtures::ChainViewQuery(kWalDepth));
  if (!uf.ok()) {
    state.SkipWithError(uf.status().ToString().c_str());
    return;
  }

  CheckOptions dry;
  dry.apply = false;
  CheckOptions apply;
  CheckServiceOptions options;
  options.worker_threads = threads + 1;
  options.queue_capacity = kChecksPerIter + 64;
  CheckService svc(uf->get(), options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < threads; ++t) sessions.push_back(svc.OpenSession());
  auto writer_session = svc.OpenSession();

  std::vector<std::string> checks;
  std::vector<std::string> writes;
  for (int k = 0; k < kBatchSize; ++k) {
    checks.push_back(
        ufilter::fixtures::ChainDeleteUpdate(kWalDepth - 1, k));
    writes.push_back(
        ufilter::fixtures::ChainReplaceUpdate(kWalDepth - 1, k, "w0"));
    writes.push_back(
        ufilter::fixtures::ChainReplaceUpdate(kWalDepth - 1, k, "w1"));
  }
  for (const std::string& u : checks) (void)(*uf)->Prepare(u);
  for (const std::string& u : writes) (void)(*uf)->Prepare(u);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> commits{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      CheckReport r =
          svc.Submit(writer_session, writes[i++ % writes.size()], apply)
              .get();
      if (r.outcome == CheckOutcome::kExecuted) {
        commits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  CounterWindow counters(svc.registry());
  int64_t checked = 0;
  std::vector<std::future<CheckReport>> futures;
  futures.reserve(kChecksPerIter);
  for (auto _ : state) {
    futures.clear();
    for (int i = 0; i < kChecksPerIter; ++i) {
      futures.push_back(svc.Submit(
          sessions[static_cast<size_t>(i) % sessions.size()],
          checks[static_cast<size_t>(i) % checks.size()], dry));
    }
    for (auto& f : futures) {
      CheckReport r = f.get();
      if (r.outcome != CheckOutcome::kExecuted) {
        stop.store(true, std::memory_order_release);
        writer.join();
        state.SkipWithError(r.Describe().c_str());
        return;
      }
      ++checked;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  const double iters = static_cast<double>(state.iterations());
  state.SetItemsProcessed(checked);
  state.counters["worker_threads"] = threads;
  state.counters["writers"] = 1;
  state.counters["writer_commits"] = static_cast<double>(commits.load());
  state.counters["wal_records"] = delta("wal_records");
  state.counters["wal_fsyncs"] = delta("wal_fsyncs");
  state.counters["reader_wait_ns_per_iter"] =
      iters > 0 ? delta("service_reader_wait_ns") / iters : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Concurrent check service: thread scaling ===\n"
      "Workload: %d cached leaf-delete templates over a depth-%d chain view\n"
      "(apply=false), %d checks per iteration through a CheckService with\n"
      "1/2/4/8 workers. Check-only traffic runs against pinned MVCC\n"
      "snapshots with no lock held. Measured on a 4-vCPU VM: ~2.3x the\n"
      "1-worker rate at 4 and at 8 workers (docs/BENCHMARKS.md); no\n"
      "speedup is asserted. MixedChecksOneWriter repeats the sweep with\n"
      "one concurrent apply=true writer client: reader_wait_ns_per_iter\n"
      "staying ~0 is the readers-never-block acceptance counter.\n\n",
      kBatchSize, kDepth, kChecksPerIter);
  benchmark::RegisterBenchmark("ConcurrentChecks", BM_ConcurrentChecks)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("MixedChecksOneWriter",
                               BM_MixedChecksOneWriter)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  benchmark::RegisterBenchmark("MixedChecksOneWriterWal",
                               BM_MixedChecksOneWriterWal)
      ->Arg(4)
      ->UseRealTime()
      ->MeasureProcessCPUTime();
  return ufilter::bench::RunWithJson(argc, argv, "concurrency");
}
