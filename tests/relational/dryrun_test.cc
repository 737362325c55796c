// DryRunOps against real execution, exhaustively over a small scope: every
// op sequence of length <= 3 over a fixed alphabet, on 2- and 3-level FK
// chains under each delete policy. Enumerating instead of sampling means
// every interleaving of inserts, deletes and updates in that scope is
// checked, including those that must find rows written earlier in the same
// sequence. The oracle executes the same ops through Database in a
// savepoint and rolls back; the dry run must agree on status and rows
// affected, and must leave no trace in the database.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "fixtures/synthetic.h"
#include "obs/metrics.h"
#include "relational/dryrun.h"
#include "relational/sqlgen.h"

#include "../support/op_oracle.h"

namespace ufilter {
namespace {

using relational::Database;
using relational::DeletePolicy;
using relational::DryRunOutcome;
using relational::UpdateOp;
using relational::UpdateOpKind;

UpdateOp Insert(const std::string& table,
                std::map<std::string, Value> values) {
  UpdateOp op;
  op.kind = UpdateOpKind::kInsert;
  op.table = table;
  op.values = std::move(values);
  return op;
}

UpdateOp Delete(const std::string& table, const std::string& column,
                Value literal) {
  UpdateOp op;
  op.kind = UpdateOpKind::kDelete;
  op.table = table;
  op.where.push_back({column, CompareOp::kEq, std::move(literal)});
  return op;
}

UpdateOp Update(const std::string& table, const std::string& set_column,
                Value value, const std::string& key_column, Value key) {
  UpdateOp op;
  op.kind = UpdateOpKind::kUpdate;
  op.table = table;
  op.values[set_column] = std::move(value);
  op.where.push_back({key_column, CompareOp::kEq, std::move(key)});
  return op;
}

/// The alphabet, over the chain's t0(k0 PK, v0) <- t1(k1 PK, v1, p1 FK)
/// seeded with keys 0..2 (t1 row r references t0 row r). The ops are
/// chosen to interact: a key deleted or renamed by one op is reinserted
/// or referenced by another, and the non-key delete matches only rows
/// that earlier ops inserted or rewrote.
std::vector<std::pair<std::string, UpdateOp>> Alphabet() {
  return {
      {"insert fresh key",
       Insert("t1", {{"k1", Value::Int(10)},
                     {"v1", Value::String("x")},
                     {"p1", Value::Int(0)}})},
      {"insert duplicate key",
       Insert("t1", {{"k1", Value::Int(0)},
                     {"v1", Value::String("y")},
                     {"p1", Value::Int(1)}})},
      {"insert dangling FK",
       Insert("t1", {{"k1", Value::Int(11)},
                     {"v1", Value::String("x")},
                     {"p1", Value::Int(10)}})},
      {"delete by key", Delete("t0", "k0", Value::Int(0))},
      {"delete by non-key", Delete("t1", "v1", Value::String("x"))},
      {"update non-key",
       Update("t1", "v1", Value::String("x"), "k1", Value::Int(2))},
      {"update parent key",
       Update("t0", "k0", Value::Int(10), "k0", Value::Int(1))},
      {"update key", Update("t1", "k1", Value::Int(10), "k1", Value::Int(0))},
      {"update FK", Update("t1", "p1", Value::Int(10), "k1", Value::Int(1))},
  };
}

/// The series only a live write may move.
std::vector<uint64_t> WriteCounters(const Database& db) {
  obs::RegistrySnapshot snap = db.registry().Collect();
  std::vector<uint64_t> out;
  for (const char* name : {"engine_rows_inserted", "engine_rows_deleted",
                           "engine_rows_updated", "engine_undo_records"}) {
    out.push_back(obs::SampleValue(snap, name));
  }
  return out;
}

struct Tally {
  int cases = 0;
  std::map<StatusCode, int> by_code;
};

/// Dry-runs `ops` on a snapshot of a fresh chain, checks it left nothing
/// behind, then compares it with execute-and-rollback on the same data.
DryRunOutcome CheckSequence(int depth, DeletePolicy policy,
                            const std::vector<UpdateOp>& ops,
                            const std::string& label, Tally* tally) {
  SCOPED_TRACE(label);
  auto db = fixtures::MakeChainDatabase(depth, 3, policy);
  if (!db.ok()) {
    ADD_FAILURE() << db.status().ToString();
    return {};
  }
  auto state_before = (*db)->SerializePublishedState();
  if (!state_before.ok()) {
    ADD_FAILURE() << state_before.status().ToString();
    return {};
  }
  const uint64_t epoch_before = (*db)->commit_epoch();
  const std::vector<uint64_t> counters_before = WriteCounters(**db);

  auto pinned = (*db)->CreateContext();
  pinned->PinReadSnapshot((*db)->OpenSnapshot());
  DryRunOutcome dry = relational::DryRunOps(**db, pinned.get(), ops);
  pinned->ClearReadSnapshot();

  auto state_after = (*db)->SerializePublishedState();
  EXPECT_TRUE(state_after.ok() && *state_after == *state_before)
      << "dry run changed published data";
  EXPECT_EQ((*db)->commit_epoch(), epoch_before);
  EXPECT_EQ(pinned->undo_log_size(), 0u);
  EXPECT_EQ((*db)->undo_log_size(), 0u);
  EXPECT_EQ(WriteCounters(**db), counters_before);

  auto ctx = (*db)->CreateContext();
  DryRunOutcome exec = test_support::ExecuteAndRollBack(db->get(), ctx.get(),
                                                        ops);
  EXPECT_EQ(dry.failure.code(), exec.failure.code())
      << "dry: " << dry.failure.ToString()
      << " exec: " << exec.failure.ToString();
  EXPECT_EQ(dry.failure.message(), exec.failure.message());
  EXPECT_EQ(dry.rows_affected, exec.rows_affected);
  ++tally->cases;
  ++tally->by_code[exec.failure.code()];
  return dry;
}

TEST(DryRunTest, EverySequenceUpToThreeOpsMatchesExecution) {
  const auto alphabet = Alphabet();
  const size_t n = alphabet.size();
  for (int depth : {2, 3}) {
    for (DeletePolicy policy : {DeletePolicy::kCascade,
                                DeletePolicy::kSetNull,
                                DeletePolicy::kRestrict}) {
      Tally tally;
      for (size_t len = 1; len <= 3; ++len) {
        size_t combos = 1;
        for (size_t i = 0; i < len; ++i) combos *= n;
        for (size_t code = 0; code < combos; ++code) {
          std::vector<UpdateOp> ops;
          std::string label = "depth " + std::to_string(depth) +
                              ", policy " +
                              std::to_string(static_cast<int>(policy)) + ":";
          for (size_t i = 0, rest = code; i < len; ++i, rest /= n) {
            ops.push_back(alphabet[rest % n].second);
            label += " [" + alphabet[rest % n].first + "]";
          }
          CheckSequence(depth, policy, ops, label, &tally);
        }
      }
      EXPECT_EQ(tally.cases, static_cast<int>(n + n * n + n * n * n));
      // The scope reaches both verdicts under every fixture.
      EXPECT_GT(tally.by_code[StatusCode::kOk], 0);
      EXPECT_GT(tally.by_code[StatusCode::kConstraintViolation], 0);
    }
  }
}

TEST(DryRunTest, SequencesFindRowsWrittenEarlierInTheSequence) {
  // Spot checks that the enumeration's interactions really happen.
  const auto alphabet = Alphabet();
  auto op = [&](const std::string& name) {
    for (const auto& [label, o] : alphabet) {
      if (label == name) return o;
    }
    ADD_FAILURE() << "no op " << name;
    return UpdateOp{};
  };
  Tally tally;
  // The inserted row matches the non-key delete.
  DryRunOutcome out = CheckSequence(
      2, DeletePolicy::kCascade,
      {op("insert fresh key"), op("delete by non-key")}, "insert, delete",
      &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 2);
  // So does the rewritten image.
  out = CheckSequence(2, DeletePolicy::kCascade,
                      {op("update non-key"), op("delete by non-key")},
                      "update, delete", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 2);
  // A renamed parent key is a valid FK target; the renamed-away one is not.
  out = CheckSequence(2, DeletePolicy::kRestrict,
                      {op("update parent key"), op("insert dangling FK")},
                      "rename parent, insert child", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  out = CheckSequence(2, DeletePolicy::kRestrict,
                      {op("update parent key"), op("insert duplicate key")},
                      "rename parent, insert orphan", &tally);
  EXPECT_TRUE(out.failure.IsConstraintViolation()) << out.failure.ToString();
  // A key freed by a cascade can be reused.
  out = CheckSequence(3, DeletePolicy::kCascade,
                      {op("delete by key"), op("insert duplicate key")},
                      "cascade, reinsert", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 3 + 1);
}

}  // namespace
}  // namespace ufilter
