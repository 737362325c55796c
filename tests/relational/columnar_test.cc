// Columnar read path (relational/columnar.h): lazy per-version build and
// reuse, counter accounting, row-path fallbacks (temp tables, unpinned /
// dirty reads), exact EvalCompare parity of the vectorized predicate
// kernels, typed hash-join builds, and the GC lifetime tie between a column
// cache and its table version. The concurrency storm at the end is the
// TSAN/ASan target: many pinned readers racing one committing writer.
#include "relational/columnar.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "fixtures/bookdb.h"
#include "obs/metrics.h"
#include "relational/query.h"

namespace ufilter::relational {
namespace {

using fixtures::MakeBookDatabase;

std::unique_ptr<Database> Db() {
  auto db = MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(*db);
}

/// `SELECT b.bookid, b.price FROM book b WHERE b.price > 40` — price is
/// unindexed, so this always compiles to a full scan (the columnar target).
SelectQuery PriceQuery() {
  SelectQuery q;
  q.tables = {{"book", "b"}};
  q.selects = {{"b", "bookid"}, {"b", "price"}};
  q.filters = {{{"b", "price"}, CompareOp::kGt, Value::Double(40.0)}};
  return q;
}

TEST(ColumnarTest, LazyBuildOnFirstPinnedScanThenReuse) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  obs::CounterWindow counters(db->registry());

  db->root_context()->PinReadSnapshot(db->OpenSnapshot());
  auto pinned = eval.Execute(PriceQuery());
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  EXPECT_EQ(pinned->rows.size(), 2u);  // 45.00 and 48.00

  EXPECT_EQ(counters.Delta("columnar_builds"), 1u);
  // All of book, vectorized; the survivors of price > 40; the row path
  // never ran.
  EXPECT_EQ(counters.Delta("columnar_scan_rows"), 3u);
  EXPECT_EQ(counters.Delta("selection_vector_rows"), 2u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 0u);

  // Same version, second scan: the cache is shared, not rebuilt.
  auto again = eval.Execute(PriceQuery());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(counters.Delta("columnar_builds"), 1u);
  EXPECT_EQ(counters.Delta("columnar_scan_rows"), 6u);
  db->root_context()->ClearReadSnapshot();

  // Unpinned: identical result through the row path, no columnar traffic.
  counters.Rebase();
  auto live = eval.Execute(PriceQuery());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->rows, pinned->rows);
  EXPECT_EQ(live->row_ids, pinned->row_ids);
  EXPECT_EQ(counters.Delta("columnar_builds"), 0u);
  EXPECT_EQ(counters.Delta("columnar_scan_rows"), 0u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 3u);
}

TEST(ColumnarTest, TempTablesKeepRowPathEvenWhenPinned) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  SelectQuery mat;
  mat.tables = {{"book", "b"}};
  mat.selects = {{"b", "bookid"}, {"b", "price"}};
  ASSERT_TRUE(eval.MaterializeInto(mat, "TAB_scratch").ok());

  db->root_context()->PinReadSnapshot(db->OpenSnapshot());
  obs::CounterWindow counters(db->registry());
  SelectQuery q;
  q.tables = {{"TAB_scratch", "s"}};
  q.selects = {{"s", "bookid"}};
  q.filters = {{{"s", "price"}, CompareOp::kGt, Value::Double(40.0)}};
  auto r = eval.Execute(q);
  db->root_context()->ClearReadSnapshot();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);

  // Session-local scratch is mutable (not version-protected), so it must
  // never get a column cache — even under a pinned snapshot.
  EXPECT_EQ(counters.Delta("columnar_builds"), 0u);
  EXPECT_EQ(counters.Delta("columnar_scan_rows"), 0u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 3u);
}

TEST(ColumnarTest, DirtyLiveReadsTakeRowPathWhilePinnedReadersKeepColumns) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  auto snap = db->OpenSnapshot();
  db->root_context()->PinReadSnapshot(snap);
  auto pinned_before_write = eval.Execute(PriceQuery());
  ASSERT_TRUE(pinned_before_write.ok());
  EXPECT_EQ(pinned_before_write->rows.size(), 2u);

  // A writer commits a fourth book (price 50) on its own context. The
  // copy-on-write clone deliberately does not inherit the column cache.
  auto wctx = db->CreateContext();
  {
    Database::WriterGuard guard(db.get());
    auto ins = db->Insert(wctx.get(), "book",
                          {Value::String("98004"), Value::String("Columns"),
                           Value::String("A01"), Value::Double(50.0),
                           Value::Int(2024)});
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
    wctx->Checkpoint();
  }

  // The pinned reader still sees its epoch, served from the cached columns
  // of the *old* version (no rebuild).
  obs::CounterWindow counters(db->registry());
  auto pinned_after_write = eval.Execute(PriceQuery());
  ASSERT_TRUE(pinned_after_write.ok());
  EXPECT_EQ(pinned_after_write->rows.size(), 2u);
  EXPECT_EQ(counters.Delta("columnar_builds"), 0u);
  EXPECT_GT(counters.Delta("columnar_scan_rows"), 0u);

  // Unpinned read of the live tables: row path, sees the new row.
  db->root_context()->ClearReadSnapshot();
  snap.reset();
  counters.Rebase();
  auto live = eval.Execute(PriceQuery());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live->rows.size(), 3u);
  EXPECT_EQ(counters.Delta("columnar_builds"), 0u);
  EXPECT_EQ(counters.Delta("engine_rows_scanned"), 4u);
}

TEST(ColumnarTest, FilterColumnMatchesEvalCompareForAllOpsAndLiteralTypes) {
  // A table exercising every storage/semantic edge the kernels must get
  // right: NULLs (bitmap), an INT value stored in a DOUBLE column (widened),
  // an integer above 2^53 (double-compare semantics, same as the row path),
  // -0.0, 1e300, and empty strings.
  DatabaseSchema schema;
  TableSchema mix("mix");
  mix.AddColumn("id", ValueType::kInt, /*not_null=*/true);
  mix.AddColumn("i", ValueType::kInt);
  mix.AddColumn("d", ValueType::kDouble);
  mix.AddColumn("s", ValueType::kString);
  mix.SetPrimaryKey({"id"});
  ASSERT_TRUE(schema.AddTable(mix).ok());
  auto db = Database::Create(std::move(schema));
  ASSERT_TRUE(db.ok());
  const int64_t big = (int64_t{1} << 53) + 1;
  const std::vector<Row> rows = {
      {Value::Int(1), Value::Int(-3), Value::Double(-0.0), Value::String("")},
      {Value::Int(2), Value::Null(), Value::Double(2.5), Value::Null()},
      {Value::Int(3), Value::Int(big), Value::Double(1e300),
       Value::String("bb")},
      {Value::Int(4), Value::Int(0), Value::Null(), Value::String("zz")},
      {Value::Int(5), Value::Int(2), Value::Double(2.0), Value::String("b")},
      {Value::Int(6), Value::Int(7), Value::Int(2), Value::String("cc")},
  };
  for (const Row& r : rows) {
    ASSERT_TRUE((*db)->Insert("mix", r).ok());
  }
  auto table = (*db)->GetTable("mix");
  ASSERT_TRUE(table.ok());
  auto col = ColumnarTable::Build(**table);
  ASSERT_EQ(col->row_count(), rows.size());

  const std::vector<RowId> ids = (*table)->AllRowIds();
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  // Literal pool spans NULL, both numeric reps and strings, so every
  // (column type, literal type) pair — including the cross-rank ones, where
  // the total order says numbers sort below strings — is covered.
  const Value literals[] = {
      Value::Null(),        Value::Int(2),       Value::Int(big),
      Value::Double(2.5),   Value::Double(0.0),  Value::Double(2.0),
      Value::String("bb"),  Value::String(""),   Value::String("z")};
  for (int c = 1; c <= 3; ++c) {
    for (const Value& lit : literals) {
      for (CompareOp op : ops) {
        ColumnarTable::Sel sel;
        col->SelectAll(&sel);
        col->FilterColumn(c, op, lit, &sel);
        std::vector<RowId> got;
        for (uint32_t pos : sel) got.push_back(col->row_ids()[pos]);
        std::vector<RowId> want;
        for (RowId id : ids) {
          const Row* r = (*table)->GetRow(id);
          ASSERT_NE(r, nullptr);
          if (EvalCompare((*r)[static_cast<size_t>(c)], op, lit)) {
            want.push_back(id);
          }
        }
        EXPECT_EQ(got, want) << "column " << c << " " << CompareOpSymbol(op)
                             << " " << lit.ToSqlLiteral();
      }
    }
  }
}

TEST(ColumnarTest, ColumnarHashJoinBuildMatchesRowPath) {
  auto db = Db();
  QueryEvaluator eval(db.get());
  // Self-join on review.comment: unindexed (review's PK is composite), so
  // the planner builds a hash table for the inner side.
  SelectQuery q;
  q.tables = {{"review", "r1"}, {"review", "r2"}};
  q.joins = {{{"r1", "comment"}, CompareOp::kEq, {"r2", "comment"}}};
  q.selects = {{"r1", "bookid"}, {"r2", "reviewid"}};

  auto row_path = eval.Execute(q);
  ASSERT_TRUE(row_path.ok()) << row_path.status().ToString();
  ASSERT_FALSE(row_path->rows.empty());  // at least the diagonal

  obs::CounterWindow counters(db->registry());
  db->root_context()->PinReadSnapshot(db->OpenSnapshot());
  auto col_path = eval.Execute(q);
  db->root_context()->ClearReadSnapshot();
  ASSERT_TRUE(col_path.ok()) << col_path.status().ToString();

  EXPECT_EQ(col_path->column_names, row_path->column_names);
  EXPECT_EQ(col_path->row_ids, row_path->row_ids);
  EXPECT_EQ(col_path->rows, row_path->rows);

  // Still a hash join, but built from typed columns.
  EXPECT_GT(counters.Delta("engine_hash_join_builds"), 0u);
  EXPECT_GT(counters.Delta("engine_hash_join_probes"), 0u);
  EXPECT_GT(counters.Delta("columnar_scan_rows"), 0u);
}

TEST(ColumnarTest, GcReclaimsColumnsWithTheirVersion) {
  auto db = Db();
  std::weak_ptr<const ColumnarTable> weak;
  {
    auto snap = db->OpenSnapshot();
    const Table* book = snap->FindTable("book");
    ASSERT_NE(book, nullptr);
    auto cols = book->columnar(&db->counters());
    ASSERT_NE(cols, nullptr);
    EXPECT_EQ(cols->row_count(), 3u);
    // Same version, same cache object.
    EXPECT_EQ(book->columnar(&db->counters()).get(), cols.get());
    weak = cols;
  }
  // Snapshot closed but the version is still the published one: alive.
  EXPECT_FALSE(weak.expired());

  // A committed write supersedes the version. Nothing pins the old epoch,
  // so GC frees the old book table — and the columns die with it (the
  // copy-on-write clone never inherited the cache).
  auto wctx = db->CreateContext();
  {
    Database::WriterGuard guard(db.get());
    auto upd = db->UpdateWhere(
        wctx.get(), "book", {{"year", Value::Int(1998)}},
        {{"bookid", CompareOp::kEq, Value::String("98001")}});
    ASSERT_TRUE(upd.ok()) << upd.status().ToString();
    wctx->Checkpoint();
  }
  EXPECT_TRUE(weak.expired());

  // The new version starts cold and builds its own cache on demand.
  obs::CounterWindow counters(db->registry());
  QueryEvaluator eval(db.get());
  db->root_context()->PinReadSnapshot(db->OpenSnapshot());
  auto r = eval.Execute(PriceQuery());
  db->root_context()->ClearReadSnapshot();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(counters.Delta("columnar_builds"), 1u);
}

TEST(ColumnarTest, ConcurrentPinnedScansBuildOnceUnderWriterChurn) {
  auto db = Db();
  std::atomic<int> failures{0};

  // Readers pin, scan (price > 40 — the writer churns *year*, so the
  // answer is always exactly 2), unpin. Each pinned version's cache is
  // built at most once no matter how many readers race on it.
  auto reader = [&] {
    auto ctx = db->CreateContext();
    QueryEvaluator eval(db.get(), ctx.get());
    for (int i = 0; i < 60; ++i) {
      ctx->PinReadSnapshot(db->OpenSnapshot());
      auto r = eval.Execute(PriceQuery());
      if (!r.ok() || r->rows.size() != 2) ++failures;
      ctx->ClearReadSnapshot();
    }
  };
  std::thread writer([&] {
    auto wctx = db->CreateContext();
    for (int i = 0; i < 40; ++i) {
      Database::WriterGuard guard(db.get());
      auto upd = db->UpdateWhere(
          wctx.get(), "book", {{"year", Value::Int(1990 + (i % 10))}},
          {{"bookid", CompareOp::kEq, Value::String("98002")}});
      if (!upd.ok()) ++failures;
      wctx->Checkpoint();
    }
  });
  std::vector<std::thread> readers;
  for (int i = 0; i < 3; ++i) readers.emplace_back(reader);
  for (std::thread& t : readers) t.join();
  writer.join();

  EXPECT_EQ(failures.load(), 0);
  obs::RegistrySnapshot stats = db->registry().Collect();
  EXPECT_GT(obs::SampleValue(stats, "columnar_builds"), 0u);
  // Builds are bounded by the number of versions that existed (initial +
  // one per committed write), not by the number of scans (3 * 60).
  EXPECT_LE(obs::SampleValue(stats, "columnar_builds"), 41u);
  EXPECT_GT(obs::SampleValue(stats, "selection_vector_rows"), 0u);
}

}  // namespace
}  // namespace ufilter::relational
