// The concurrent check service: verdict equivalence with the
// single-threaded baseline under N threads x M mixed updates, read-only
// dry-run equivalence across FK delete policies (the validator behind the
// fast path), session isolation (temp tables, undo), writer-lane applies,
// the bounded admission queue, and plan-cache thread safety. Run under
// ThreadSanitizer in CI (zero reported races is an acceptance criterion).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fixtures/bookdb.h"
#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "relational/dryrun.h"
#include "relational/query.h"
#include "relational/sqlgen.h"
#include "relational/wal.h"
#include "service/bounded_queue.h"
#include "service/check_service.h"

#include "../support/op_oracle.h"
#include "../support/temp_dir.h"

namespace ufilter {
namespace {

using check::CheckOptions;
using check::CheckOutcome;
using check::CheckReport;
using check::UFilter;
using relational::Database;
using relational::DeletePolicy;
using relational::ExecutionContext;
using service::BoundedQueue;
using service::CheckService;
using service::CheckServiceOptions;
using service::Session;

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<UFilter> uf;
};

/// One series of the service's scrape (the whole process: service and
/// database registries).
uint64_t Series(const CheckService& svc, const std::string& name) {
  return obs::SampleValue(svc.registry().Collect(), name);
}

Instance MakeBookInstance() {
  Instance inst;
  auto db = fixtures::MakeBookDatabase();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::BookViewQuery());
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

Instance MakeChainInstance(int depth, int rows,
                           DeletePolicy policy = DeletePolicy::kCascade) {
  Instance inst;
  auto db = fixtures::MakeChainDatabase(depth, rows, policy);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  inst.db = std::move(*db);
  auto uf = UFilter::Create(inst.db.get(), fixtures::ChainViewQuery(depth));
  EXPECT_TRUE(uf.ok()) << uf.status().ToString();
  inst.uf = std::move(*uf);
  return inst;
}

void ExpectSameVerdict(const CheckReport& got, const CheckReport& want,
                       const std::string& label) {
  EXPECT_EQ(got.outcome, want.outcome) << label << ": " << got.Describe();
  EXPECT_EQ(got.error.ToString(), want.error.ToString()) << label;
  EXPECT_EQ(got.star_class, want.star_class) << label;
  EXPECT_EQ(got.rows_affected, want.rows_affected) << label;
  EXPECT_EQ(got.zero_tuple_warning, want.zero_tuple_warning) << label;
  EXPECT_EQ(relational::UpdateSequenceToSql(got.translation),
            relational::UpdateSequenceToSql(want.translation))
      << label;
}

// --- Tentpole: N threads x M mixed updates == single-threaded baseline ----

TEST(ConcurrencyTest, StressVerdictsMatchSingleThreadedBaseline) {
  // Mixed workload over the paper's book database: translatable deletes and
  // replaces, untranslatable updates, data conflicts, parse errors.
  std::vector<std::string> updates;
  for (int u = 1; u <= 13; ++u) updates.push_back(fixtures::PaperUpdate(u));
  updates.push_back("THIS IS NOT AN UPDATE");

  CheckOptions dry;
  dry.apply = false;

  // Single-threaded baseline (check-only, so every repetition agrees).
  Instance baseline = MakeBookInstance();
  std::vector<CheckReport> expected;
  expected.reserve(updates.size());
  for (const std::string& u : updates) {
    expected.push_back(baseline.uf->Check(u, dry));
  }

  Instance inst = MakeBookInstance();
  constexpr int kThreads = 4;
  constexpr int kRounds = 16;
  CheckServiceOptions options;
  options.worker_threads = kThreads;
  CheckService svc(inst.uf.get(), options);

  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < kThreads; ++t) sessions.push_back(svc.OpenSession());

  // kThreads submitter threads, each driving its own session, all updates,
  // several rounds — every check runs against the same shared database.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<CheckReport>> futures;
        for (size_t i = 0; i < updates.size(); ++i) {
          futures.push_back(svc.Submit(sessions[t], updates[i], dry));
        }
        for (size_t i = 0; i < updates.size(); ++i) {
          CheckReport got = futures[i].get();
          if (got.outcome != expected[i].outcome ||
              got.rows_affected != expected[i].rows_affected ||
              got.error.ToString() != expected[i].error.ToString()) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  EXPECT_EQ(Series(svc, "service_completed"), Series(svc, "service_submitted"));
  EXPECT_EQ(Series(svc, "service_completed"),
            static_cast<uint64_t>(kThreads) * kRounds * updates.size());
  // The dry workload is served overwhelmingly read-only: only the one
  // multi-action template (u13) escalates to the writer lane per round.
  EXPECT_GT(Series(svc, "service_fast_path"),
            Series(svc, "service_writer_lane"));
  // The database is untouched by check-only traffic.
  Instance fresh = MakeBookInstance();
  EXPECT_EQ(inst.db->TotalRows(), fresh.db->TotalRows());
}

TEST(ConcurrencyTest, CascadeHeavyDryRunsMatchBaselineThroughService) {
  // Deletes at every level of a cascade chain: the read-only validator must
  // reproduce transitive cascade counts exactly.
  constexpr int kDepth = 3;
  constexpr int kRows = 24;
  std::vector<std::string> updates;
  for (int level = 0; level < kDepth; ++level) {
    for (int key = 0; key < 4; ++key) {
      updates.push_back(fixtures::ChainDeleteUpdate(level, key));
    }
  }
  CheckOptions dry;
  dry.apply = false;

  Instance baseline = MakeChainInstance(kDepth, kRows);
  std::vector<CheckReport> expected;
  for (const std::string& u : updates) {
    expected.push_back(baseline.uf->Check(u, dry));
  }
  // Sanity: the workload really exercises cascades.
  bool saw_cascade = false;
  for (const CheckReport& r : expected) {
    if (r.rows_affected > 1) saw_cascade = true;
  }
  EXPECT_TRUE(saw_cascade);

  Instance inst = MakeChainInstance(kDepth, kRows);
  CheckServiceOptions options;
  options.worker_threads = 2;
  CheckService svc(inst.uf.get(), options);
  auto session = svc.OpenSession();
  std::vector<std::future<CheckReport>> futures;
  for (const std::string& u : updates) {
    futures.push_back(svc.Submit(session, u, dry));
  }
  for (size_t i = 0; i < updates.size(); ++i) {
    ExpectSameVerdict(futures[i].get(), expected[i],
                      "update " + std::to_string(i));
  }
  // Cascade walks are decidable read-only: nothing escalates.
  EXPECT_EQ(Series(svc, "service_writer_lane"), 0u);
}

// --- The read-only validator vs. execute-and-rollback, per FK policy ------

CheckReport BaselineDryRun(Instance* inst, const std::string& update) {
  CheckOptions dry;
  dry.apply = false;
  return inst->uf->Check(update, dry);
}

std::optional<CheckReport> ReadOnlyDryRun(Instance* inst,
                                          const std::string& update) {
  CheckOptions dry;
  dry.apply = false;
  auto plan = inst->uf->Prepare(update);
  return inst->uf->TryCheckReadOnly(*plan, dry);
}

TEST(ConcurrencyTest, ReadOnlyCheckMatchesExecuteRollbackUnderRestrict) {
  // Deleting a referenced row under kRestrict: real execution fails with
  // ConstraintViolation at ExecuteOps; the validator must say the same.
  Instance a = MakeChainInstance(3, 8, DeletePolicy::kRestrict);
  Instance b = MakeChainInstance(3, 8, DeletePolicy::kRestrict);
  std::string update = fixtures::ChainDeleteUpdate(0, 1);
  CheckReport baseline = BaselineDryRun(&a, update);
  EXPECT_EQ(baseline.outcome, CheckOutcome::kDataConflict)
      << baseline.Describe();
  auto read_only = ReadOnlyDryRun(&b, update);
  ASSERT_TRUE(read_only.has_value()) << "restrict walk should be decidable";
  ExpectSameVerdict(*read_only, baseline, "restrict delete");
}

TEST(ConcurrencyTest, ReadOnlyCheckMatchesExecuteRollbackUnderSetNull) {
  Instance a = MakeChainInstance(2, 8, DeletePolicy::kSetNull);
  Instance b = MakeChainInstance(2, 8, DeletePolicy::kSetNull);
  std::string update = fixtures::ChainDeleteUpdate(0, 2);
  CheckReport baseline = BaselineDryRun(&a, update);
  auto read_only = ReadOnlyDryRun(&b, update);
  ASSERT_TRUE(read_only.has_value());
  ExpectSameVerdict(*read_only, baseline, "set-null delete");
}

TEST(ConcurrencyTest, ReadOnlyCheckMatchesBaselineOnPaperUpdates) {
  // Every paper update stays on the fast path: a new escalation fails here
  // instead of passing silently.
  for (int u = 1; u <= 13; ++u) {
    Instance a = MakeBookInstance();
    Instance b = MakeBookInstance();
    CheckReport baseline = BaselineDryRun(&a, fixtures::PaperUpdate(u));
    auto read_only = ReadOnlyDryRun(&b, fixtures::PaperUpdate(u));
    ASSERT_TRUE(read_only.has_value()) << "u" << u << " escalated";
    ExpectSameVerdict(*read_only, baseline, "u" + std::to_string(u));
  }
}

/// DryRunOps on a snapshot-pinned context agrees with executing the ops in
/// a savepoint and rolling back.
relational::DryRunOutcome ExpectDryRunMatchesExecution(
    Database* db, const std::vector<relational::UpdateOp>& ops) {
  auto pinned = db->CreateContext();
  pinned->PinReadSnapshot(db->OpenSnapshot());
  relational::DryRunOutcome dry = relational::DryRunOps(*db, pinned.get(), ops);
  auto ctx = db->CreateContext();
  relational::DryRunOutcome exec =
      test_support::ExecuteAndRollBack(db, ctx.get(), ops);
  EXPECT_EQ(dry.failure.ToString(), exec.failure.ToString());
  EXPECT_EQ(dry.rows_affected, exec.rows_affected);
  return dry;
}

TEST(ConcurrencyTest, DryRunOpsValidatesInsertConstraints) {
  // Direct validator checks: unique conflicts, FK existence, and ops that
  // must see rows written earlier in the same sequence.
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  using relational::UpdateOp;
  using relational::UpdateOpKind;
  using ufilter::Value;

  // Duplicate PK on book -> the exact engine failure, zero mutation.
  UpdateOp dup;
  dup.kind = UpdateOpKind::kInsert;
  dup.table = "book";
  dup.values["bookid"] = Value::String("98001");  // exists in the fixture
  dup.values["title"] = Value::String("x");
  size_t rows_before = (*db)->TotalRows();
  auto outcome = ExpectDryRunMatchesExecution(db->get(), {dup});
  EXPECT_TRUE(outcome.failure.IsConstraintViolation())
      << outcome.failure.ToString();
  EXPECT_EQ((*db)->TotalRows(), rows_before);

  // Insert publisher then a book referencing it: the overlay supplies the
  // FK target that is not in the database yet.
  UpdateOp pub;
  pub.kind = UpdateOpKind::kInsert;
  pub.table = "publisher";
  pub.values["pubid"] = Value::String("P777");
  pub.values["pubname"] = Value::String("NewPub");
  UpdateOp child;
  child.kind = UpdateOpKind::kInsert;
  child.table = "book";
  child.values["bookid"] = Value::String("77001");
  child.values["title"] = Value::String("t");
  child.values["pubid"] = Value::String("P777");
  outcome = ExpectDryRunMatchesExecution(db->get(), {pub, child});
  EXPECT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
  EXPECT_EQ(outcome.rows_affected, 2);

  // A delete after an insert in the same sequence finds the inserted row.
  UpdateOp del;
  del.kind = UpdateOpKind::kDelete;
  del.table = "publisher";
  del.where.push_back({"pubid", CompareOp::kEq, Value::String("P777")});
  outcome = ExpectDryRunMatchesExecution(db->get(), {pub, del});
  EXPECT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
  EXPECT_EQ(outcome.rows_affected, 2);

  // A find-driven op after an update op on the same table matches the
  // rewritten image, which no base index holds.
  UpdateOp upd;
  upd.kind = UpdateOpKind::kUpdate;
  upd.table = "publisher";
  upd.values["pubname"] = Value::String("Renamed");
  upd.where.push_back({"pubid", CompareOp::kEq, Value::String("A01")});
  UpdateOp del2;
  del2.kind = UpdateOpKind::kDelete;
  del2.table = "publisher";
  del2.where.push_back(
      {"pubname", CompareOp::kEq, Value::String("Renamed")});
  outcome = ExpectDryRunMatchesExecution(db->get(), {upd, del2});
  EXPECT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
  EXPECT_GT(outcome.rows_affected, 2);  // the update, A01 and its cascade
}

TEST(ConcurrencyTest, DryRunAcceptsReinsertAfterSetNullAndDelete) {
  // Regression: delete t0 row (SET-NULLs its t1 child, leaving a stale
  // image in the overlay), delete that child, then re-insert its key. The
  // unique-conflict scan must skip the overlay-deleted child's stale image;
  // real execution accepts this sequence.
  using relational::UpdateOp;
  using relational::UpdateOpKind;
  auto db = fixtures::MakeChainDatabase(2, 8, DeletePolicy::kSetNull);
  ASSERT_TRUE(db.ok());
  UpdateOp del_parent;
  del_parent.kind = UpdateOpKind::kDelete;
  del_parent.table = "t0";
  del_parent.where.push_back({"k0", CompareOp::kEq, Value::Int(2)});
  UpdateOp del_child;
  del_child.kind = UpdateOpKind::kDelete;
  del_child.table = "t1";
  del_child.where.push_back({"k1", CompareOp::kEq, Value::Int(2)});
  UpdateOp reinsert;
  reinsert.kind = UpdateOpKind::kInsert;
  reinsert.table = "t1";
  reinsert.values["k1"] = Value::Int(2);
  reinsert.values["v1"] = Value::String("fresh");
  auto outcome = relational::DryRunOps(
      **db, nullptr, {del_parent, del_child, reinsert});
  EXPECT_TRUE(outcome.failure.ok()) << outcome.failure.ToString();
  EXPECT_EQ(outcome.rows_affected, 3);

  // Real execution agrees (execute, then roll back).
  size_t mark = (*db)->Begin();
  ASSERT_TRUE((*db)->DeleteWhere("t0", del_parent.where).ok());
  ASSERT_TRUE((*db)->DeleteWhere("t1", del_child.where).ok());
  EXPECT_TRUE((*db)->InsertValues("t1", reinsert.values).ok());
  (*db)->Rollback(mark);
}

// --- Session isolation ----------------------------------------------------

TEST(ConcurrencyTest, TempTablesAreInvisibleAcrossSessions) {
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto ctx_a = (*db)->CreateContext();
  auto ctx_b = (*db)->CreateContext();

  relational::SelectQuery q;
  q.tables.push_back({"book", "b"});
  q.selects.push_back({"b", "bookid"});
  relational::QueryEvaluator eval_a(db->get(), ctx_a.get());
  ASSERT_TRUE(eval_a.MaterializeInto(q, "TAB_iso").ok());

  // Session A sees its table; session B and the root context do not.
  EXPECT_TRUE((*db)->GetTable(ctx_a.get(), "TAB_iso").ok());
  EXPECT_FALSE((*db)->GetTable(ctx_b.get(), "TAB_iso").ok());
  EXPECT_FALSE((*db)->GetTable("TAB_iso").ok());
  EXPECT_TRUE(ctx_a->IsTempTable("TAB_iso"));
  EXPECT_FALSE(ctx_b->IsTempTable("TAB_iso"));

  // B can create its own table under the same name, with its own shape.
  relational::TableSchema other("TAB_iso");
  other.AddColumn("x", ValueType::kString);
  ASSERT_TRUE(ctx_b->CreateTempTable(other).ok());
  auto a_table = (*db)->GetTable(ctx_a.get(), "TAB_iso");
  auto b_table = (*db)->GetTable(ctx_b.get(), "TAB_iso");
  ASSERT_TRUE(a_table.ok());
  ASSERT_TRUE(b_table.ok());
  EXPECT_NE(*a_table, *b_table);
  EXPECT_EQ((*b_table)->schema().columns().size(), 1u);

  // A query through B's evaluator reads B's table, not A's.
  relational::SelectQuery probe;
  probe.tables.push_back({"TAB_iso", "t"});
  probe.selects.push_back({"t", "x"});
  relational::QueryEvaluator eval_b(db->get(), ctx_b.get());
  auto res = eval_b.Execute(probe);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_TRUE(res->empty());

  ASSERT_TRUE(ctx_a->DropTempTable("TAB_iso").ok());
  EXPECT_TRUE(ctx_b->IsTempTable("TAB_iso"));
}

TEST(ConcurrencyTest, UndoLogsAreSessionLocal) {
  auto db = fixtures::MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto ctx_a = (*db)->CreateContext();
  auto ctx_b = (*db)->CreateContext();
  size_t rows_before = (*db)->TotalRows();

  size_t mark_a = ctx_a->Begin();
  size_t mark_b = ctx_b->Begin();
  ASSERT_TRUE((*db)
                  ->InsertValues(ctx_a.get(), "publisher",
                                 {{"pubid", Value::String("P900")},
                                  {"pubname", Value::String("A")}})
                  .ok());
  ASSERT_TRUE((*db)
                  ->InsertValues(ctx_b.get(), "publisher",
                                 {{"pubid", Value::String("P901")},
                                  {"pubname", Value::String("B")}})
                  .ok());
  EXPECT_EQ(ctx_a->undo_log_size(), 1u);
  EXPECT_EQ(ctx_b->undo_log_size(), 1u);

  // Rolling back A removes only A's insert.
  ctx_a->Rollback(mark_a);
  EXPECT_EQ((*db)->TotalRows(), rows_before + 1);
  ctx_b->Rollback(mark_b);
  EXPECT_EQ((*db)->TotalRows(), rows_before);
}

// --- Writer lane: applies stay serialized and consistent ------------------

TEST(ConcurrencyTest, ConcurrentAppliesMatchSequentialState) {
  constexpr int kDepth = 3;
  constexpr int kRows = 64;
  constexpr int kDeletes = 32;

  // Sequential reference.
  Instance seq = MakeChainInstance(kDepth, kRows);
  for (int k = 0; k < kDeletes; ++k) {
    CheckReport r =
        seq.uf->Check(fixtures::ChainDeleteUpdate(kDepth - 1, k));
    ASSERT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  }

  Instance inst = MakeChainInstance(kDepth, kRows);
  CheckServiceOptions options;
  options.worker_threads = 4;
  CheckService svc(inst.uf.get(), options);
  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < 4; ++t) sessions.push_back(svc.OpenSession());
  std::vector<std::future<CheckReport>> futures;
  CheckOptions apply;  // defaults: apply=true
  for (int k = 0; k < kDeletes; ++k) {
    futures.push_back(svc.Submit(sessions[static_cast<size_t>(k) % 4],
                                 fixtures::ChainDeleteUpdate(kDepth - 1, k),
                                 apply));
  }
  for (auto& f : futures) {
    CheckReport r = f.get();
    EXPECT_EQ(r.outcome, CheckOutcome::kExecuted) << r.Describe();
  }
  EXPECT_EQ(inst.db->TotalRows(), seq.db->TotalRows());
  // Applies all went through the writer lane.
  EXPECT_GE(Series(svc, "service_writer_lane"),
            static_cast<uint64_t>(kDeletes));
}

// --- Readers never block on the writer lane (MVCC snapshot fast path) -----

TEST(ConcurrencyTest, SnapshotReadersNeverWaitOnAWriterHoldingTheLane) {
  // Fault injection: every writer-lane request holds the lane for 50ms.
  // Check-only traffic runs against pinned snapshots with no lock held, so
  // its latency — and the service's reader-wait counter — must not include
  // the writer's occupancy. (Wall-clock ordering is deliberately not
  // asserted: on a single-core CI runner only the wait-time counters are
  // meaningful; see ISSUE/BENCHMARKS.)
  constexpr int kHoldMs = 50;
  constexpr int kChecks = 24;
  Instance inst = MakeChainInstance(3, 32);
  CheckServiceOptions options;
  options.worker_threads = 4;
  options.writer_lane_hold_ms_for_testing = kHoldMs;
  CheckService svc(inst.uf.get(), options);
  auto writer_session = svc.OpenSession();
  auto reader_session = svc.OpenSession();

  CheckOptions apply;  // defaults: apply=true -> writer lane
  CheckOptions dry;
  dry.apply = false;

  // Start the writer and wait until it actually occupies the lane.
  auto writer_future =
      svc.Submit(writer_session, fixtures::ChainDeleteUpdate(2, 0), apply);
  while (Series(svc, "service_writer_lane") == 0) {
    std::this_thread::yield();
  }

  // Concurrent snapshot checks complete while the writer sits on the lane.
  std::vector<std::future<CheckReport>> checks;
  for (int i = 0; i < kChecks; ++i) {
    checks.push_back(svc.Submit(reader_session,
                                fixtures::ChainDeleteUpdate(2, 1 + i % 8),
                                dry));
  }
  for (auto& f : checks) {
    EXPECT_EQ(f.get().outcome, CheckOutcome::kExecuted);
  }
  EXPECT_EQ(writer_future.get().outcome, CheckOutcome::kExecuted);

  EXPECT_EQ(Series(svc, "service_fast_path"), static_cast<uint64_t>(kChecks));
  // The invariant under test: snapshot readers waited on nothing — their
  // only synchronization is the snapshot-open mutex, which the 50ms-writer
  // holds only for the microseconds of its commit publish. Allow half the
  // injected hold as a generous noise bound; blocking readers would cost
  // kHoldMs each.
  EXPECT_LT(Series(svc, "service_reader_wait_ns"),
            static_cast<uint64_t>(kHoldMs) * 1000 * 1000 / 2)
      << "snapshot readers must not inherit writer-lane latency";
  EXPECT_GE(Series(svc, "mvcc_snapshots_opened"),
            static_cast<uint64_t>(kChecks));
  EXPECT_GE(Series(svc, "db_commit_epoch"), 1u);
  EXPECT_EQ(Series(svc, "db_oldest_pinned_epoch"),
            Series(svc, "db_commit_epoch"))
      << "no snapshot may stay pinned after its check completes";
}

TEST(ConcurrencyTest, ConcurrentChecksSurviveAnActiveWriterAndStayParityClean) {
  // Mixed storm: one session keeps applying value replacements (writer
  // lane, new commit epoch each) while reader sessions run check-only
  // deletes whose verdicts are computed against pinned snapshots. Every
  // check must come back executed (the key-addressed victim always exists
  // at every epoch: the writer only recolors values).
  constexpr int kRounds = 12;
  constexpr int kReaderThreads = 3;
  Instance inst = MakeChainInstance(2, 24);
  CheckServiceOptions options;
  options.worker_threads = 4;
  CheckService svc(inst.uf.get(), options);

  auto writer_session = svc.OpenSession();
  CheckOptions apply;
  CheckOptions dry;
  dry.apply = false;

  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.emplace_back([&] {
    for (int i = 0; i < kRounds * 4; ++i) {
      CheckReport r = svc.Submit(writer_session,
                                 fixtures::ChainReplaceUpdate(
                                     1, i % 24, i % 2 == 0 ? "x" : "y"),
                                 apply)
                          .get();
      if (r.outcome != CheckOutcome::kExecuted) ++failures;
    }
  });
  for (int t = 0; t < kReaderThreads; ++t) {
    submitters.emplace_back([&, t] {
      auto session = svc.OpenSession();
      for (int i = 0; i < kRounds * 8; ++i) {
        CheckReport r = svc.Submit(session,
                                   fixtures::ChainDeleteUpdate(
                                       1, (t * 7 + i) % 24),
                                   dry)
                            .get();
        if (r.outcome != CheckOutcome::kExecuted) ++failures;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);

  EXPECT_EQ(Series(svc, "service_completed"), Series(svc, "service_submitted"));
  EXPECT_GE(Series(svc, "service_writer_lane"),
            static_cast<uint64_t>(kRounds) * 4);
  EXPECT_GE(Series(svc, "db_commit_epoch"), static_cast<uint64_t>(kRounds) * 4);
  // Check-only traffic never mutated anything: row counts intact.
  Instance fresh = MakeChainInstance(2, 24);
  EXPECT_EQ(inst.db->TotalRows(), fresh.db->TotalRows());
  // All pins released -> GC caught up.
  EXPECT_EQ(inst.db->retained_version_count(), 0u);
}

TEST(ConcurrencyTest, RolledBackWriterRequestsPublishNoEpoch) {
  // Both escalated check-only requests and *failed* applies execute and
  // roll back — neither may commit a byte-identical epoch, or a stream of
  // conflicting applies turns into clone/publish/GC churn with zero data
  // change.
  Instance inst = MakeChainInstance(2, 8, DeletePolicy::kRestrict);
  CheckServiceOptions options;
  options.worker_threads = 2;
  CheckService svc(inst.uf.get(), options);
  auto session = svc.OpenSession();

  CheckOptions apply;  // defaults: apply=true
  // Deleting a referenced level-0 row under kRestrict fails at execution.
  CheckReport rejected =
      svc.Submit(session, fixtures::ChainDeleteUpdate(0, 1), apply).get();
  ASSERT_EQ(rejected.outcome, CheckOutcome::kDataConflict)
      << rejected.Describe();
  const uint64_t epoch_after_reject = Series(svc, "db_commit_epoch");

  for (int i = 0; i < 8; ++i) {
    CheckReport r =
        svc.Submit(session, fixtures::ChainDeleteUpdate(0, 1), apply).get();
    EXPECT_EQ(r.outcome, CheckOutcome::kDataConflict);
  }
  EXPECT_EQ(Series(svc, "db_commit_epoch"), epoch_after_reject)
      << "rolled-back applies must not publish epochs";

  // A successful apply (leaf level has nothing referencing it) publishes.
  CheckReport ok =
      svc.Submit(session, fixtures::ChainDeleteUpdate(1, 1), apply).get();
  ASSERT_EQ(ok.outcome, CheckOutcome::kExecuted) << ok.Describe();
  EXPECT_GT(Series(svc, "db_commit_epoch"), epoch_after_reject);
}

// --- Bounded admission queue ----------------------------------------------

TEST(ConcurrencyTest, BoundedQueueBackpressureAndDrain) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3)) << "queue over capacity";
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.high_water(), 2u);

  // A blocked Push completes once a consumer makes room.
  std::thread producer([&] { EXPECT_TRUE(q.Push(3)); });
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 1);
  producer.join();

  // Close drains: queued items still pop, then Pop reports exhaustion.
  q.Close();
  EXPECT_FALSE(q.Push(4));
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 3);
  EXPECT_FALSE(q.Pop(&out));
}

TEST(ConcurrencyTest, ShutdownDrainsPendingRequests) {
  Instance inst = MakeBookInstance();
  CheckServiceOptions options;
  options.worker_threads = 2;
  CheckService svc(inst.uf.get(), options);
  auto session = svc.OpenSession();
  CheckOptions dry;
  dry.apply = false;
  std::vector<std::future<CheckReport>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(svc.Submit(session, fixtures::PaperUpdate(8), dry));
  }
  svc.Shutdown();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().outcome, CheckOutcome::kExecuted);
  }
  // Post-shutdown submissions resolve immediately with a rejection.
  CheckReport rejected = svc.Submit(session, fixtures::PaperUpdate(8)).get();
  EXPECT_EQ(rejected.outcome, CheckOutcome::kInvalid);
}

// --- Shared plan cache under concurrency ----------------------------------

TEST(ConcurrencyTest, PlanCacheIsThreadSafeAndCountsWork) {
  Instance inst = MakeBookInstance();
  obs::CounterWindow counters(inst.db->registry());
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        for (int u = 8; u <= 12; ++u) {
          auto plan = inst.uf->Prepare(fixtures::PaperUpdate(u));
          ASSERT_NE(plan, nullptr);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t hits = counters.Delta("plan_cache_hits");
  const uint64_t misses = counters.Delta("plan_cache_misses");
  EXPECT_EQ(hits + misses, static_cast<uint64_t>(kThreads) * kRounds * 5);
  // Every shape compiled at least once, and the cache served the rest
  // (u11 and u12 differ only in a literal: five updates, four shapes).
  EXPECT_GE(misses, 4u);
  EXPECT_GT(hits, misses);
  EXPECT_EQ(inst.uf->plan_cache().size(), 4u);
}

// --- Durability through the service (PR 6) --------------------------------

TEST(ConcurrencyTest, DurableServiceWritesWalAndRecoversExactState) {
  constexpr int kDepth = 2;
  constexpr int kRows = 16;
  test_support::TempDir tmp("ufilter_svc");
  ASSERT_TRUE(tmp.ok());

  Instance inst = MakeChainInstance(kDepth, kRows);
  CheckServiceOptions options;
  options.worker_threads = 4;
  options.durability.wal_path = tmp.path("svc.wal");
  options.durability.fsync_policy = relational::FsyncPolicy::kGroup;
  options.durability.group_commit_size = 4;
  uint64_t live_epoch = 0;
  std::string live_state;
  {
    CheckService svc(inst.uf.get(), options);
    ASSERT_TRUE(svc.durability_status().ok())
        << svc.durability_status().ToString();
    // The database predates the WAL, so anchor the seed in a checkpoint
    // (EnableDurability's documented contract for pre-populated data).
    ASSERT_TRUE(
        inst.db->WriteCheckpoint(tmp.path("svc.ckpt")).status().ok());

    std::vector<std::shared_ptr<Session>> sessions;
    for (int t = 0; t < 4; ++t) sessions.push_back(svc.OpenSession());
    CheckOptions apply;  // writer lane -> one WAL record per commit
    CheckOptions dry;
    dry.apply = false;  // fast path -> must never touch the WAL
    std::vector<std::future<CheckReport>> futures;
    for (int i = 0; i < 32; ++i) {
      futures.push_back(svc.Submit(
          sessions[static_cast<size_t>(i) % 4],
          fixtures::ChainReplaceUpdate(kDepth - 1, i % kRows,
                                       i % 2 == 0 ? "wal" : "fsync"),
          apply));
      futures.push_back(svc.Submit(
          sessions[static_cast<size_t>(i + 1) % 4],
          fixtures::ChainDeleteUpdate(kDepth - 1, i % kRows), dry));
    }
    for (auto& f : futures) {
      EXPECT_EQ(f.get().outcome, CheckOutcome::kExecuted);
    }
    svc.Shutdown();  // durability barrier: final group fsynced

    EXPECT_GT(Series(svc, "wal_records"), 0u);
    EXPECT_GT(Series(svc, "wal_bytes"), 0u);
    EXPECT_GE(Series(svc, "wal_fsyncs"), 1u);
    EXPECT_LT(Series(svc, "wal_fsyncs"), Series(svc, "wal_records"))
        << "group commit must amortize fsyncs across writer-lane commits";
    EXPECT_GT(Series(svc, "service_fast_path"), 0u);
    ASSERT_TRUE(inst.db->wal_status().ok());
    live_epoch = inst.db->commit_epoch();
    Result<std::string> state = inst.db->SerializePublishedState();
    ASSERT_TRUE(state.ok());
    live_state = *state;
  }

  // Recovery: checkpoint (the pre-service seed) + WAL suffix (the applies)
  // lands byte-exactly on the live state the service left behind.
  auto recovered = Database::Create(fixtures::MakeChainSchema(kDepth));
  ASSERT_TRUE(recovered.ok());
  relational::DurabilityOptions recover_opts = options.durability;
  recover_opts.checkpoint_path = tmp.path("svc.ckpt");
  Status rs = (*recovered)->RecoverFrom(recover_opts);
  ASSERT_TRUE(rs.ok()) << rs.ToString();
  EXPECT_EQ((*recovered)->commit_epoch(), live_epoch);
  Result<std::string> replayed = (*recovered)->SerializePublishedState();
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(*replayed, live_state);
}

TEST(ConcurrencyTest, DurabilityOffLeavesWalCountersZero) {
  Instance inst = MakeChainInstance(2, 8);
  CheckService svc(inst.uf.get(), CheckServiceOptions{});
  auto session = svc.OpenSession();
  CheckOptions apply;
  EXPECT_EQ(
      svc.Submit(session, fixtures::ChainReplaceUpdate(1, 0, "x"), apply)
          .get()
          .outcome,
      CheckOutcome::kExecuted);
  svc.Shutdown();
  EXPECT_TRUE(svc.durability_status().ok());
  EXPECT_EQ(Series(svc, "wal_records"), 0u);
  EXPECT_EQ(Series(svc, "wal_fsyncs"), 0u);
  EXPECT_EQ(Series(svc, "wal_bytes"), 0u);
  EXPECT_FALSE(inst.db->durability_enabled());
}

}  // namespace
}  // namespace ufilter
