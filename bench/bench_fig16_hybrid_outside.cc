// Fig. 16: hybrid vs. outside strategy for a successful delete over Vbush.
//
// Both strategies run the same translated deletes; they differ in how the
// data-level check is performed:
//   - hybrid: the delete queries run directly against the base tables,
//     where Oracle-style indexes exist on the keys and foreign keys;
//   - outside: the context probe is materialized into a temp table (the
//     paper's "TAB_..."), and the per-relation probes join the base tables
//     against that *unindexed* materialization before any delete is issued.
// The paper's shape: hybrid clearly below outside at every database size.
#include <benchmark/benchmark.h>

#include "bench_json.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>

#include "fixtures/tpch_views.h"
#include "obs/metrics.h"
#include "relational/query.h"
#include "relational/tpch.h"
#include "ufilter/checker.h"
#include "ufilter/translator.h"
#include "ufilter/update_binding.h"
#include "xquery/parser.h"

namespace {

using ufilter::check::BindUpdate;
using ufilter::check::BoundUpdate;
using ufilter::check::Translator;
using ufilter::check::UFilter;
using ufilter::relational::ColRef;
using ufilter::relational::QueryEvaluator;
using ufilter::relational::SelectQuery;

struct Instance {
  std::unique_ptr<ufilter::relational::Database> db;
  std::unique_ptr<UFilter> uf;
  ufilter::xq::UpdateStmt stmt;
};

Instance& InstanceFor(int scale_tenths) {
  static std::map<int, std::unique_ptr<Instance>> instances;
  auto& slot = instances[scale_tenths];
  if (slot == nullptr) {
    slot = std::make_unique<Instance>();
    ufilter::relational::tpch::TpchOptions options;
    options.scale = static_cast<double>(scale_tenths) / 10.0;
    auto db = ufilter::relational::tpch::MakeDatabase(options);
    if (db.ok()) slot->db = std::move(*db);
    auto uf =
        UFilter::Create(slot->db.get(), ufilter::fixtures::VBushQuery());
    if (uf.ok()) slot->uf = std::move(*uf);
    auto stmt = ufilter::xq::ParseUpdate(
        "FOR $nation IN document(\"V.xml\")/nation, $order IN "
        "$nation/order\nWHERE $order/o_orderkey/text() = 5\nUPDATE $nation "
        "{\n  DELETE $order\n}");
    if (stmt.ok()) slot->stmt = std::move(*stmt);
  }
  return *slot;
}

/// Surfaces the per-iteration probe work of the scenario that just ran.
/// `counters` is opened at scenario entry so series/scales never
/// accumulate into each other.
void ReportWork(benchmark::State& state,
                const ufilter::obs::CounterWindow& counters) {
  const double iters = static_cast<double>(std::max<int64_t>(
      state.iterations(), 1));
  auto per_iter = [&](const char* name) {
    return static_cast<double>(counters.Delta(name)) / iters;
  };
  state.counters["queries_per_iter"] = per_iter("engine_queries_executed");
  state.counters["rows_scanned_per_iter"] = per_iter("engine_rows_scanned");
  // The planner's temp-table rescue: probes against the unindexed
  // materialization show up here instead of as O(n*m) scans.
  state.counters["hash_join_builds_per_iter"] =
      per_iter("engine_hash_join_builds");
  state.counters["hash_join_probes_per_iter"] =
      per_iter("engine_hash_join_probes");
  state.counters["index_lookups_per_iter"] = per_iter("engine_index_lookups");
}

/// Hybrid: translate via indexed base-table probes and execute directly.
void BM_Hybrid(benchmark::State& state) {
  Instance& inst = InstanceFor(static_cast<int>(state.range(0)));
  auto* db = inst.db.get();
  ufilter::obs::CounterWindow counters(db->registry());
  for (auto _ : state) {
    size_t savepoint = db->Begin();
    auto bound =
        BindUpdate(inst.uf->analyzed_view(), inst.uf->view_asg(), inst.stmt);
    Translator translator(db, &inst.uf->analyzed_view(),
                          &inst.uf->view_asg());
    QueryEvaluator evaluator(db);
    auto victim_query = translator.ComposeVictimProbe(*bound);
    auto victims = evaluator.Execute(*victim_query);
    auto ops = translator.TranslateDelete(*bound, *victim_query, *victims,
                                          /*minimize=*/true);
    for (const auto& op : *ops) {
      auto outcome = db->DeleteWhere(op.table, op.where);
      benchmark::DoNotOptimize(outcome);
    }
    db->Rollback(savepoint);
  }
  state.counters["db_rows"] = static_cast<double>(db->TotalRows());
  ReportWork(state, counters);
}

/// Outside: materialize the context probe into an unindexed temp table,
/// pre-probe each target relation by joining against it (scan joins), and
/// only then execute the deletes.
void BM_Outside(benchmark::State& state) {
  Instance& inst = InstanceFor(static_cast<int>(state.range(0)));
  auto* db = inst.db.get();
  ufilter::obs::CounterWindow counters(db->registry());
  for (auto _ : state) {
    size_t savepoint = db->Begin();
    auto bound =
        BindUpdate(inst.uf->analyzed_view(), inst.uf->view_asg(), inst.stmt);
    Translator translator(db, &inst.uf->analyzed_view(),
                          &inst.uf->view_asg());
    QueryEvaluator evaluator(db);
    // Materialize the victim chain probe (the paper's TAB_ctx).
    auto victim_query = translator.ComposeVictimProbe(*bound);
    (void)evaluator.MaterializeInto(*victim_query, "TAB_ctx");
    // Pre-probe the target relations joining against the unindexed TAB:
    // base table first (full scan), TAB matched per row.
    for (const auto& [rel, key] :
         std::map<std::string, std::string>{{"orders", "o_orderkey"},
                                            {"lineitem", "l_orderkey"}}) {
      SelectQuery probe;
      probe.tables = {{rel, rel}, {"TAB_ctx", "t"}};
      probe.selects = {ColRef{rel, key}};
      probe.joins = {{ColRef{rel, key}, ufilter::CompareOp::kEq,
                      ColRef{"t", "o_orderkey"}}};
      auto rows = evaluator.Execute(probe);
      benchmark::DoNotOptimize(rows);
    }
    // Now the actual deletes (same translation as hybrid).
    auto victims = evaluator.Execute(*victim_query);
    auto ops = translator.TranslateDelete(*bound, *victim_query, *victims,
                                          /*minimize=*/true);
    for (const auto& op : *ops) {
      auto outcome = db->DeleteWhere(op.table, op.where);
      benchmark::DoNotOptimize(outcome);
    }
    (void)db->DropTempTable("TAB_ctx");
    db->Rollback(savepoint);
  }
  state.counters["db_rows"] = static_cast<double>(db->TotalRows());
  ReportWork(state, counters);
}

BENCHMARK(BM_Hybrid)->DenseRange(2, 10, 2);
BENCHMARK(BM_Outside)->DenseRange(2, 10, 2);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "=== Fig. 16: hybrid vs. outside for a delete over Vbush ===\n"
      "Arg = scale/10. Expected shape: hybrid below outside everywhere —\n"
      "the outside strategy pays for scan joins against the unindexed\n"
      "materialized probe table.\n\n");
  return ufilter::bench::RunWithJson(argc, argv, "fig16_hybrid_outside");
}
