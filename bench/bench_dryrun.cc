// Per-template cost of DryRunOps: the outside strategy's last step-3 check,
// which runs an update's translated ops through Database's own constraint
// code (FK existence, unique keys, the FK delete-policy walk) on a throwaway
// overlay of a pinned snapshot.
//
// The database is perfbench's: relational::tpch::MakeDatabase at scale 4
// (5 regions, 25 nations, 600 customers, 6,000 orders, 24,000 lineitems;
// seeded, so every run sees the same rows). Each series dry-runs the one op
// the Vfail translation emits for a check_hot template, with the keys of the
// golden corpus (tests/integration/shape_golden.txt):
//
//   DryRun/order_delete        DELETE FROM orders WHERE o_orderkey = 42
//   DryRun/customer_delete     DELETE FROM customer WHERE c_custkey = 7
//   DryRun/nation_delete       DELETE FROM nation WHERE n_nationkey = 3
//   DryRun/lineitem_insert     INSERT INTO lineitem (...) VALUES (9, 17, ...)
//   DryRun/order_price_update  UPDATE orders SET o_totalprice = 1234.56
//                              WHERE o_orderkey = 9
//
// The deletes cascade over every order and lineitem below the key. Each
// series reports rows_per_iter (the rows the op affects, as DryRunOutcome
// counts them) and index_lookups_per_iter (engine_index_lookups). Both are
// fixed by the data, so a change that only makes probes cheaper moves
// neither; CI pins the deletes' rows_per_iter exactly. Emits
// BENCH_dryrun.json; see docs/BENCHMARKS.md.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "relational/database.h"
#include "relational/dryrun.h"
#include "relational/sqlgen.h"
#include "relational/tpch.h"

namespace {

using ufilter::CompareOp;
using ufilter::Value;
using ufilter::obs::CounterWindow;
using ufilter::relational::Database;
using ufilter::relational::DryRunOps;
using ufilter::relational::DryRunOutcome;
using ufilter::relational::UpdateOp;
using ufilter::relational::UpdateOpKind;

Database* SharedDb() {
  static std::unique_ptr<Database> db = [] {
    ufilter::relational::tpch::TpchOptions options;
    options.scale = 4;
    auto made = ufilter::relational::tpch::MakeDatabase(options);
    if (!made.ok()) {
      std::fprintf(stderr, "tpch: %s\n", made.status().ToString().c_str());
      std::abort();
    }
    return std::move(*made);
  }();
  return db.get();
}

UpdateOp DeleteByKey(const char* table, const char* column, int64_t key) {
  UpdateOp op;
  op.kind = UpdateOpKind::kDelete;
  op.table = table;
  op.where.push_back({column, CompareOp::kEq, Value::Int(key)});
  return op;
}

UpdateOp InsertLineitem() {
  UpdateOp op;
  op.kind = UpdateOpKind::kInsert;
  op.table = "lineitem";
  op.values = {{"l_linenumber", Value::Int(9)},
               {"l_orderkey", Value::Int(17)},
               {"l_quantity", Value::Int(5)},
               {"l_shipmode", Value::String("AIR")}};
  return op;
}

UpdateOp UpdateOrderPrice() {
  UpdateOp op;
  op.kind = UpdateOpKind::kUpdate;
  op.table = "orders";
  op.values = {{"o_totalprice", Value::Double(1234.56)}};
  op.where.push_back({"o_orderkey", CompareOp::kEq, Value::Int(9)});
  return op;
}

void BM_DryRun(benchmark::State& state, const std::vector<UpdateOp>& ops) {
  Database* db = SharedDb();
  auto ctx = db->CreateContext();
  ctx->PinReadSnapshot(db->OpenSnapshot());
  CounterWindow counters(db->registry());
  int64_t rows = 0;
  for (auto _ : state) {
    DryRunOutcome out = DryRunOps(*db, ctx.get(), ops);
    if (!out.failure.ok()) {
      state.SkipWithError(out.failure.ToString().c_str());
      break;
    }
    rows += out.rows_affected;
    benchmark::DoNotOptimize(rows);
  }
  const double iters = static_cast<double>(state.iterations());
  if (iters > 0) {
    state.counters["rows_per_iter"] = static_cast<double>(rows) / iters;
    state.counters["index_lookups_per_iter"] =
        static_cast<double>(counters.Delta("engine_index_lookups")) / iters;
  }
  ctx->ClearReadSnapshot();
}

}  // namespace

int main(int argc, char** argv) {
  const struct {
    const char* name;
    std::vector<UpdateOp> ops;
  } series[] = {
      {"DryRun/order_delete", {DeleteByKey("orders", "o_orderkey", 42)}},
      {"DryRun/customer_delete", {DeleteByKey("customer", "c_custkey", 7)}},
      {"DryRun/nation_delete", {DeleteByKey("nation", "n_nationkey", 3)}},
      {"DryRun/lineitem_insert", {InsertLineitem()}},
      {"DryRun/order_price_update", {UpdateOrderPrice()}},
  };
  for (const auto& s : series) {
    benchmark::RegisterBenchmark(s.name, BM_DryRun, s.ops)
        ->Unit(benchmark::kMicrosecond);
  }
  return ufilter::bench::RunWithJson(argc, argv, "dryrun");
}
