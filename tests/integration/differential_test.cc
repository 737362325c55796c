// Differential test of the compiled plan executor against the retained
// reference interpreter: randomized SPJ and disjunctive queries over the
// bookdb and TPC-H fixtures must produce byte-identical results — rows,
// per-table row ids and branch demultiplexing — including the NULL
// semantics (NULL never joins or matches). Index-free temp tables are
// mixed in so the hash-join and join-reorder paths are exercised.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/query.h"
#include "relational/tpch.h"

#include "../support/fuzz_seed.h"

namespace ufilter::relational {
namespace {

class QueryFuzzer {
 public:
  /// `cheap_tables` disables cross products and theta joins: the *reference*
  /// interpreter pays O(n*m) for them, which is exactly what the compiled
  /// executor fixes — affordable on bookdb, not on TPC-H.
  QueryFuzzer(Database* db, std::vector<std::string> pool, uint32_t seed,
              bool cheap_tables = true)
      : db_(db), pool_(std::move(pool)), cheap_tables_(cheap_tables),
        rng_(seed) {}

  DisjunctiveQuery Generate() {
    DisjunctiveQuery dq;
    SelectQuery& q = dq.base;
    const int table_count = 1 + static_cast<int>(rng_() % 3);
    from_.clear();
    for (int i = 0; i < table_count; ++i) {
      std::string name = pool_[rng_() % pool_.size()];
      q.tables.push_back({name, Alias(i)});
      from_.push_back(std::move(name));
    }
    // Joins: chain consecutive tables on same-typed columns (usually an
    // equi-join — the interesting access paths — sometimes theta).
    for (int i = 1; i < table_count; ++i) {
      if (cheap_tables_ && rng_() % 4 == 0) continue;  // cross product
      std::string a = RandomColumn(i - 1);
      std::string b = SameTypeColumn(i, ColumnType(i - 1, a));
      if (b.empty()) continue;
      CompareOp op = cheap_tables_ && rng_() % 5 == 0 ? RandomOp()
                                                      : CompareOp::kEq;
      q.joins.push_back({{Alias(i - 1), a}, op, {Alias(i), b}});
    }
    // Literal filters sampled from live data (occasionally NULL to pin the
    // NULL-never-matches semantics).
    const int filter_count = static_cast<int>(rng_() % 3);
    for (int i = 0; i < filter_count; ++i) {
      int t = static_cast<int>(rng_() % q.tables.size());
      std::string col = RandomColumn(t);
      q.filters.push_back({{Alias(t), col}, RandomOp(), SampleLiteral(t, col)});
    }
    const int select_count = 1 + static_cast<int>(rng_() % 3);
    for (int i = 0; i < select_count; ++i) {
      int t = static_cast<int>(rng_() % q.tables.size());
      q.selects.push_back({Alias(t), RandomColumn(t)});
    }
    // Branches: OR-of-conjunctions over random tables/columns. An empty
    // conjunction is a TRUE branch (every result row belongs to it).
    if (rng_() % 2 == 0) {
      const int branch_count = 1 + static_cast<int>(rng_() % 3);
      for (int b = 0; b < branch_count; ++b) {
        std::vector<FilterPredicate> branch;
        const int conj = static_cast<int>(rng_() % 3);
        for (int i = 0; i < conj; ++i) {
          int t = static_cast<int>(rng_() % q.tables.size());
          std::string col = RandomColumn(t);
          branch.push_back(
              {{Alias(t), col}, RandomOp(), SampleLiteral(t, col)});
        }
        dq.branches.push_back(std::move(branch));
      }
    }
    return dq;
  }

 private:
  static std::string Alias(int i) { return "t" + std::to_string(i); }

  const Table& TableAt(int from_pos) {
    return **db_->GetTable(from_[static_cast<size_t>(from_pos)]);
  }

  std::string RandomColumn(int from_pos) {
    const auto& cols = TableAt(from_pos).schema().columns();
    return cols[rng_() % cols.size()].name;
  }

  ValueType ColumnType(int from_pos, const std::string& col) {
    const TableSchema& s = TableAt(from_pos).schema();
    return s.columns()[static_cast<size_t>(s.ColumnIndex(col))].type;
  }

  std::string SameTypeColumn(int from_pos, ValueType type) {
    std::vector<std::string> matches;
    for (const Column& c : TableAt(from_pos).schema().columns()) {
      if (c.type == type) matches.push_back(c.name);
    }
    if (matches.empty()) return "";
    return matches[rng_() % matches.size()];
  }

  CompareOp RandomOp() {
    static const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kEq,
                                     CompareOp::kEq, CompareOp::kNe,
                                     CompareOp::kLt, CompareOp::kLe,
                                     CompareOp::kGt, CompareOp::kGe};
    return kOps[rng_() % (sizeof(kOps) / sizeof(kOps[0]))];
  }

  Value SampleLiteral(int from_pos, const std::string& col) {
    if (rng_() % 10 == 0) return Value::Null();  // NULL never matches
    const Table& table = TableAt(from_pos);
    std::vector<RowId> ids = table.AllRowIds();
    if (ids.empty()) return Value::Int(0);
    const Row* row = table.GetRow(ids[rng_() % ids.size()]);
    int c = table.schema().ColumnIndex(col);
    return (*row)[static_cast<size_t>(c)];
  }

  Database* db_;
  std::vector<std::string> pool_;
  bool cheap_tables_;
  std::vector<std::string> from_;  ///< table names behind t0, t1, ...
  std::mt19937 rng_;
};

void ExpectIdentical(Database* db, const DisjunctiveQuery& dq) {
  QueryEvaluator eval(db);
  auto compiled = eval.ExecuteDisjunctive(dq);
  auto reference = eval.ExecuteReference(dq.base, dq.branches);
  // Third run, same query, with the context pinned to an MVCC snapshot:
  // base-table scans and unindexed hash-join builds now serve from the
  // columnar read path (temp tables like TAB_fuzz stay on the row path).
  // The root context keeps its temp tables while pinned, so every fuzzed
  // shape — including temp joins — replays under all three executions.
  db->root_context()->PinReadSnapshot(db->OpenSnapshot());
  auto columnar = eval.ExecuteDisjunctive(dq);
  db->root_context()->ClearReadSnapshot();
  ASSERT_EQ(compiled.ok(), reference.ok()) << dq.ToSql();
  ASSERT_EQ(columnar.ok(), reference.ok()) << dq.ToSql();
  if (!compiled.ok()) return;
  SCOPED_TRACE(dq.ToSql());
  ASSERT_EQ(compiled->merged.column_names, reference->merged.column_names);
  ASSERT_EQ(compiled->merged.rows.size(), reference->merged.rows.size());
  // Both executors emit rows lexicographically by contributing row ids in
  // FROM order, so the comparison is positional, not set-based.
  EXPECT_EQ(compiled->merged.row_ids, reference->merged.row_ids);
  for (size_t i = 0; i < compiled->merged.rows.size(); ++i) {
    const Row& a = compiled->merged.rows[i];
    const Row& b = reference->merged.rows[i];
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_TRUE(a[j].is_null() ? b[j].is_null() : a[j] == b[j])
          << "row " << i << " col " << j;
    }
  }
  EXPECT_EQ(compiled->branch_rows, reference->branch_rows);
  // Columnar vs row path: byte-identical, including value *types* (the
  // columnar path must fetch surviving rows from the row store, never
  // materialize from widened arrays — an int stored in a DOUBLE column has
  // to come back as an int).
  EXPECT_EQ(columnar->merged.column_names, compiled->merged.column_names);
  EXPECT_EQ(columnar->merged.row_ids, compiled->merged.row_ids);
  ASSERT_EQ(columnar->merged.rows.size(), compiled->merged.rows.size());
  for (size_t i = 0; i < columnar->merged.rows.size(); ++i) {
    const Row& a = columnar->merged.rows[i];
    const Row& b = compiled->merged.rows[i];
    ASSERT_EQ(a.size(), b.size());
    for (size_t j = 0; j < a.size(); ++j) {
      EXPECT_TRUE(a[j].type() == b[j].type() &&
                  (a[j].is_null() || a[j] == b[j]))
          << "columnar row " << i << " col " << j;
    }
  }
  EXPECT_EQ(columnar->branch_rows, compiled->branch_rows);
}

TEST(DifferentialTest, RandomizedBookDbQueries) {
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  // An index-free materialization joins the pool: temp-table joins must
  // demux identically through the hash-join / reorder paths.
  QueryEvaluator eval(db->get());
  SelectQuery mat;
  mat.tables = {{"book", "b"}};
  mat.selects = {{"b", "bookid"}, {"b", "pubid"}, {"b", "price"}};
  ASSERT_TRUE(eval.MaterializeInto(mat, "TAB_fuzz").ok());
  QueryFuzzer fuzzer(db->get(),
                     {"book", "publisher", "review", "book", "TAB_fuzz"},
                     test_support::FuzzSeed("bookdb-differential", 20260728));
  for (int i = 0; i < 300; ++i) {
    ExpectIdentical(db->get(), fuzzer.Generate());
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The pinned third run must actually have exercised the columnar path
  // (scans of unindexed columns / cross products are all but guaranteed
  // across 300 fuzzed shapes).
  obs::RegistrySnapshot counters = (*db)->registry().Collect();
  EXPECT_GT(obs::SampleValue(counters, "columnar_builds"), 0u);
  EXPECT_GT(obs::SampleValue(counters, "columnar_scan_rows"), 0u);
}

TEST(DifferentialTest, RandomizedTpchQueries) {
  tpch::TpchOptions options;
  options.scale = 0.1;
  auto db = tpch::MakeDatabase(options);
  ASSERT_TRUE(db.ok());
  QueryEvaluator eval(db->get());
  SelectQuery mat;
  mat.tables = {{"orders", "o"}};
  mat.selects = {{"o", "o_orderkey"}, {"o", "o_custkey"}};
  mat.filters = {{{"o", "o_orderyear"}, CompareOp::kGe, Value::Int(1995)}};
  ASSERT_TRUE(eval.MaterializeInto(mat, "TAB_orders").ok());
  QueryFuzzer fuzzer(
      db->get(), {"customer", "orders", "lineitem", "nation", "TAB_orders"},
      test_support::FuzzSeed("tpch-differential", 611),
      /*cheap_tables=*/false);
  for (int i = 0; i < 120; ++i) {
    ExpectIdentical(db->get(), fuzzer.Generate());
    if (::testing::Test::HasFatalFailure()) break;
  }
}

}  // namespace
}  // namespace ufilter::relational
