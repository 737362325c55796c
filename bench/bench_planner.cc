// Planner benchmark: interpreted (reference nested-loop interpreter) vs.
// compiled (cost-based plan + iterative executor) evaluation of the probe
// shapes that matter for U-Filter:
//
//   - TempTempJoin: two index-free temp tables equi-joined — the worst case
//     of the outside strategy's materializations. The interpreter rescans
//     the inner table per outer row (O(n*m)); the compiled plan builds a
//     one-shot hash table and probes it (O(n+m)).
//   - BaseTempJoin: the Fig. 16 shape — an indexed base table joined with
//     a small unindexed materialization (the paper's "TAB_..."). The
//     planner scans the temp table once and drives unique-index lookups
//     into the base table instead of scanning it.
//   - Prepared: the same probe through ad-hoc Execute (compile every call)
//     vs. replaying a precompiled plan (zero name resolution/planning).
//
// Emits BENCH_planner.json; tools/compare_bench.py summarizes/compares.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "relational/planner.h"
#include "relational/query.h"
#include "relational/tpch.h"

namespace {

using ufilter::Value;
using ufilter::ValueType;
using ufilter::obs::CounterWindow;
using ufilter::relational::ColRef;
using ufilter::relational::Database;
using ufilter::relational::PhysicalPlan;
using ufilter::relational::Planner;
using ufilter::relational::QueryEvaluator;
using ufilter::relational::Row;
using ufilter::relational::SelectQuery;
using ufilter::relational::TableSchema;

Database* Db() {
  static std::unique_ptr<Database> db = [] {
    ufilter::relational::tpch::TpchOptions options;
    options.scale = 1.0;
    auto made = ufilter::relational::tpch::MakeDatabase(options);
    return made.ok() ? std::move(*made) : nullptr;
  }();
  return db.get();
}

/// Creates (once) an index-free temp table `name` with one int column `k`
/// holding 0..rows-1.
void EnsureTemp(Database* db, const std::string& name, int rows) {
  if (db->IsTempTable(name)) return;
  TableSchema schema(name);
  schema.AddColumn("k", ValueType::kInt);
  (void)db->CreateTempTable(schema);
  std::vector<Row> data;
  data.reserve(static_cast<size_t>(rows));
  for (int i = 0; i < rows; ++i) data.push_back({Value::Int(i)});
  (void)db->BulkLoadTemp(name, std::move(data));
  db->Checkpoint();  // the fixture rows are permanent for the bench
}

/// The engine work of the timed loop, per iteration: `counters` was
/// opened on the database registry just before it.
void ReportWork(benchmark::State& state, const CounterWindow& counters) {
  const double iters =
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  auto per_iter = [&](const char* name) {
    return static_cast<double>(counters.Delta(name)) / iters;
  };
  state.counters["rows_scanned_per_iter"] = per_iter("engine_rows_scanned");
  state.counters["index_lookups_per_iter"] = per_iter("engine_index_lookups");
  state.counters["hash_join_builds_per_iter"] =
      per_iter("engine_hash_join_builds");
  state.counters["hash_join_probes_per_iter"] =
      per_iter("engine_hash_join_probes");
  state.counters["plans_compiled_per_iter"] =
      per_iter("engine_plans_compiled");
  state.counters["plan_replays_per_iter"] = per_iter("engine_plan_replays");
}

/// FROM (TAB_big, TAB_small) equi-joined on the unindexed k columns. The
/// big table leads the FROM list, so the interpreter rescans the small one
/// per big row; the planner reorders and hash-joins instead.
SelectQuery TempTempQuery(Database* db, int small_rows) {
  const int big_rows = small_rows * 4;
  EnsureTemp(db, "TAB_small_" + std::to_string(small_rows), small_rows);
  EnsureTemp(db, "TAB_big_" + std::to_string(big_rows), big_rows);
  SelectQuery q;
  q.tables = {{"TAB_big_" + std::to_string(big_rows), "b"},
              {"TAB_small_" + std::to_string(small_rows), "s"}};
  q.selects = {ColRef{"b", "k"}};
  q.joins = {{ColRef{"b", "k"}, ufilter::CompareOp::kEq, ColRef{"s", "k"}}};
  return q;
}

void BM_TempTempJoin_Interpreted(benchmark::State& state) {
  Database* db = Db();
  SelectQuery q = TempTempQuery(db, static_cast<int>(state.range(0)));
  QueryEvaluator evaluator(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto rows = evaluator.ExecuteReference(q, {});
    benchmark::DoNotOptimize(rows);
  }
  ReportWork(state, counters);
}

void BM_TempTempJoin_Compiled(benchmark::State& state) {
  Database* db = Db();
  SelectQuery q = TempTempQuery(db, static_cast<int>(state.range(0)));
  QueryEvaluator evaluator(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto rows = evaluator.Execute(q);
    benchmark::DoNotOptimize(rows);
  }
  ReportWork(state, counters);
}

/// The Fig. 16 shape: orders joined with a small unindexed materialization.
SelectQuery BaseTempQuery(Database* db, int temp_rows) {
  EnsureTemp(db, "TAB_probe_" + std::to_string(temp_rows), temp_rows);
  SelectQuery q;
  q.tables = {{"orders", "o"}, {"TAB_probe_" + std::to_string(temp_rows), "t"}};
  q.selects = {ColRef{"o", "o_orderkey"}};
  q.joins = {{ColRef{"o", "o_orderkey"}, ufilter::CompareOp::kEq,
              ColRef{"t", "k"}}};
  return q;
}

void BM_BaseTempJoin_Interpreted(benchmark::State& state) {
  Database* db = Db();
  SelectQuery q = BaseTempQuery(db, static_cast<int>(state.range(0)));
  QueryEvaluator evaluator(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto rows = evaluator.ExecuteReference(q, {});
    benchmark::DoNotOptimize(rows);
  }
  ReportWork(state, counters);
}

void BM_BaseTempJoin_Compiled(benchmark::State& state) {
  Database* db = Db();
  SelectQuery q = BaseTempQuery(db, static_cast<int>(state.range(0)));
  QueryEvaluator evaluator(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto rows = evaluator.Execute(q);
    benchmark::DoNotOptimize(rows);
  }
  ReportWork(state, counters);
}

/// Indexed three-way join (lineitem/orders/customer): compiled ad-hoc
/// Execute (planning every call) vs. replaying a precompiled plan.
SelectQuery IndexedJoinQuery() {
  SelectQuery q;
  q.tables = {{"lineitem", "l"}, {"orders", "o"}, {"customer", "c"}};
  q.selects = {ColRef{"l", "l_linenumber"}, ColRef{"c", "c_name"}};
  q.filters = {{ColRef{"o", "o_orderkey"}, ufilter::CompareOp::kEq,
                Value::Int(42)}};
  q.joins = {{ColRef{"l", "l_orderkey"}, ufilter::CompareOp::kEq,
              ColRef{"o", "o_orderkey"}},
             {ColRef{"o", "o_custkey"}, ufilter::CompareOp::kEq,
              ColRef{"c", "c_custkey"}}};
  return q;
}

void BM_IndexedJoin_Adhoc(benchmark::State& state) {
  Database* db = Db();
  SelectQuery q = IndexedJoinQuery();
  QueryEvaluator evaluator(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto rows = evaluator.Execute(q);
    benchmark::DoNotOptimize(rows);
  }
  ReportWork(state, counters);
}

void BM_IndexedJoin_Replay(benchmark::State& state) {
  Database* db = Db();
  SelectQuery q = IndexedJoinQuery();
  Planner planner(db);
  auto plan = planner.Compile(q);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  QueryEvaluator evaluator(db);
  CounterWindow counters(db->registry());
  for (auto _ : state) {
    auto rows = evaluator.ExecutePlan(*plan);
    benchmark::DoNotOptimize(rows);
  }
  ReportWork(state, counters);
}

/// The primitive ops under every hash join: Value::Hash and operator== over
/// a mixed int/double/string population. Both have typed fast paths (same
/// variant alternative on both sides skips the rank dispatch and std::get
/// throw checks); the (i, i+3) pairing keeps the compared Values same-typed,
/// which is the hash-join recheck's common case.
void BM_ValueHashEq(benchmark::State& state) {
  std::vector<Value> values;
  values.reserve(1024);
  for (int i = 0; i < 1024; ++i) {
    switch (i % 3) {
      case 0:
        values.push_back(Value::Int(i));
        break;
      case 1:
        values.push_back(Value::Double(i * 0.5));
        break;
      default:
        values.push_back(Value::String("key-" + std::to_string(i % 97)));
    }
  }
  size_t acc = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < values.size(); ++i) {
      acc ^= values[i].Hash();
      acc += values[i] == values[(i + 3) % values.size()] ? 1u : 0u;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()));
}

BENCHMARK(BM_ValueHashEq);
BENCHMARK(BM_TempTempJoin_Interpreted)->Arg(256)->Arg(1024);
BENCHMARK(BM_TempTempJoin_Compiled)->Arg(256)->Arg(1024);
BENCHMARK(BM_BaseTempJoin_Interpreted)->Arg(64);
BENCHMARK(BM_BaseTempJoin_Compiled)->Arg(64);
BENCHMARK(BM_IndexedJoin_Adhoc);
BENCHMARK(BM_IndexedJoin_Replay);

}  // namespace

int main(int argc, char** argv) {
  if (Db() == nullptr) {
    std::fprintf(stderr, "failed to build TPC-H fixture\n");
    return 1;
  }
  std::printf(
      "=== Planner: interpreted vs. compiled probe evaluation ===\n"
      "TempTempJoin arg = small-side rows (big side is 4x): the compiled\n"
      "hash join turns O(n*m) rescans into one build + n probes.\n"
      "BaseTempJoin arg = temp rows over TPC-H orders (Fig. 16 shape).\n\n");
  return ufilter::bench::RunWithJson(argc, argv, "planner");
}
