// Row-store vs. columnar full scans over published MVCC snapshots.
//
// One unindexed predicate shape, two access paths:
//
//   - BM_FullScanRow: the classic path — AllRowIds + per-row GetRow +
//     EvalCompare over boxed Values (variant dispatch per cell).
//   - BM_FullScanColumnar: the context pins a snapshot, so the executor
//     runs the same predicates as tight typed loops over the version's
//     column arrays, compacting one selection vector, and fetches only the
//     survivors from the row store.
//
// Args are {table_rows, selectivity_permille}: the first filter
// (val < permille * 1000 over a uniform [0, 1e6) column) keeps ~permille/1000
// of the rows; a second 50% filter (weight >= 500000) exercises the fused
// conjunction. Results are identical by construction (the differential suite
// proves it); this file measures the gap. Emits BENCH_scan.json; CI requires
// both series and gates BM_FullScanRow/262144/8 vs
// BM_FullScanColumnar/262144/8 at >= 4x (tools/compare_bench.py --pair).
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/query.h"

namespace {

using ufilter::Value;
using ufilter::ValueType;
using ufilter::obs::CounterWindow;
using ufilter::relational::ColRef;
using ufilter::relational::Database;
using ufilter::relational::DatabaseSchema;
using ufilter::relational::QueryEvaluator;
using ufilter::relational::Row;
using ufilter::relational::SelectQuery;
using ufilter::relational::TableSchema;

/// One `events` table of `rows` rows: id INT PK, val DOUBLE uniform over
/// [0, 1e6), weight INT uniform over [0, 1e6). Values are derived from the
/// row number (Knuth multiplicative hashes) so every run sees identical
/// data. Databases are cached per size and shared by both access paths.
Database* GetDb(int64_t rows) {
  static std::map<int64_t, std::unique_ptr<Database>> cache;
  auto it = cache.find(rows);
  if (it != cache.end()) return it->second.get();

  DatabaseSchema schema;
  TableSchema events("events");
  events.AddColumn("id", ValueType::kInt, /*not_null=*/true);
  events.AddColumn("val", ValueType::kDouble);
  events.AddColumn("weight", ValueType::kInt);
  events.SetPrimaryKey({"id"});
  if (!schema.AddTable(events).ok()) return nullptr;
  auto made = Database::Create(std::move(schema));
  if (!made.ok()) return nullptr;
  std::unique_ptr<Database> db = std::move(*made);
  for (int64_t i = 0; i < rows; ++i) {
    const uint64_t u = static_cast<uint64_t>(i);
    Row row = {Value::Int(i),
               Value::Double(static_cast<double>((u * 2654435761ULL) % 1000000)),
               Value::Int(static_cast<int64_t>((u * 40503ULL) % 1000000))};
    if (!db->Insert("events", std::move(row)).ok()) return nullptr;
  }
  db->Checkpoint();  // the fixture is permanent; drop the undo log
  Database* out = db.get();
  cache.emplace(rows, std::move(db));
  return out;
}

SelectQuery ScanQuery(int64_t permille) {
  SelectQuery q;
  q.tables = {{"events", "e"}};
  q.selects = {ColRef{"e", "id"}};
  q.filters = {{ColRef{"e", "val"}, ufilter::CompareOp::kLt,
                Value::Double(static_cast<double>(permille) * 1000.0)},
               {ColRef{"e", "weight"}, ufilter::CompareOp::kGe,
                Value::Int(500000)}};
  return q;
}

/// The engine work of the timed loop: `counters` was opened on the
/// database registry just before it.
void ReportWork(benchmark::State& state, const CounterWindow& counters) {
  const double iters =
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  auto delta = [&counters](const char* name) {
    return static_cast<double>(counters.Delta(name));
  };
  state.counters["rows_scanned_per_iter"] =
      delta("engine_rows_scanned") / iters;
  state.counters["columnar_scan_rows_per_iter"] =
      delta("columnar_scan_rows") / iters;
  state.counters["selection_vector_rows_per_iter"] =
      delta("selection_vector_rows") / iters;
  state.counters["columnar_builds"] = delta("columnar_builds");
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_FullScanRow(benchmark::State& state) {
  Database* db = GetDb(state.range(0));
  if (db == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  SelectQuery q = ScanQuery(state.range(1));
  QueryEvaluator eval(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto r = eval.Execute(q);
    benchmark::DoNotOptimize(r);
  }
  ReportWork(state, counters);
}

void BM_FullScanColumnar(benchmark::State& state) {
  Database* db = GetDb(state.range(0));
  if (db == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  SelectQuery q = ScanQuery(state.range(1));
  QueryEvaluator eval(db);
  // Pin once for the whole run (a service fast-path check pins per
  // request, but the pin itself is a mutex-guarded pointer copy measured
  // by bench_concurrency; here we isolate the scan).
  db->root_context()->PinReadSnapshot(db->OpenSnapshot());
  {
    auto warm = eval.Execute(q);  // build the column cache outside timing
    benchmark::DoNotOptimize(warm);
  }
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto r = eval.Execute(q);
    benchmark::DoNotOptimize(r);
  }
  ReportWork(state, counters);
  db->root_context()->ClearReadSnapshot();
}

// Size sweep at 6.4% selectivity, plus a selectivity sweep at the largest
// size. Permille values {8, 64, 512} are chosen prefix-free so --pair can
// address any single point.
BENCHMARK(BM_FullScanRow)
    ->Args({4096, 64})
    ->Args({32768, 64})
    ->Args({262144, 8})
    ->Args({262144, 64})
    ->Args({262144, 512});
BENCHMARK(BM_FullScanColumnar)
    ->Args({4096, 64})
    ->Args({32768, 64})
    ->Args({262144, 8})
    ->Args({262144, 64})
    ->Args({262144, 512});

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Full scans: row path vs. columnar selection vectors ===\n"
      "Args = {rows, selectivity_permille}. Both paths return identical\n"
      "results; the columnar one runs the predicates as typed loops over\n"
      "the pinned version's column arrays.\n\n");
  return ufilter::bench::RunWithJson(argc, argv, "scan");
}
