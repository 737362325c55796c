// DryRunOps against real execution, exhaustively over a small scope: every
// op sequence of length <= 3 over a fixed alphabet, on 2- and 3-level FK
// chains and on a small FK lattice (a self-referencing FK, a two-column FK,
// a diamond, NOT NULL FK columns) under each delete policy. Enumerating
// instead of sampling means every interleaving of inserts, deletes and
// updates in that scope is checked, including those that must find rows
// written earlier in the same sequence. The oracle executes the same ops
// through Database in a savepoint and rolls back; the dry run must agree on
// status and rows affected, and must leave no trace in the database.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
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
using relational::DatabaseSchema;
using relational::DeletePolicy;
using relational::DryRunOutcome;
using relational::TableSchema;
using relational::UpdateOp;
using relational::UpdateOpKind;

/// Builds the fresh database one case runs on.
using MakeDb = std::function<Result<std::unique_ptr<Database>>()>;

MakeDb Chain(int depth, DeletePolicy policy) {
  return [depth, policy] {
    return fixtures::MakeChainDatabase(depth, 3, policy);
  };
}

/// The lattice, every FK under `policy`:
///   hub(k PK, up -> hub.k)          self-referencing, nullable
///   pair(x, y, v; PK (x, y)), x -> hub.k    x NOT NULL (a key column)
///   leaf(k PK, x, y, h NOT NULL), (x, y) -> pair(x, y), h -> hub.k
/// seeded with the hub chain 0 <- 1 <- 2, pairs (0,0) (0,1) (1,0) and
/// leaves on (0,0)/h 0, (0,1)/h 1, (1,0)/h 2 and (NULL,NULL)/h 0. Deleting
/// hub 0 reaches leaf 0 twice (through pair (0,0) and through h), and under
/// SET NULL the NOT NULL pair.x and leaf.h cascade. Two ops of the alphabet
/// close a row cycle through `up`: hub 0 onto itself, and hub 0 onto hub 2
/// (0 <- 1 <- 2 <- 0).
Result<std::unique_ptr<Database>> MakeLattice(DeletePolicy policy) {
  DatabaseSchema schema;
  TableSchema hub("hub");
  hub.AddColumn("k", ValueType::kInt, true)
      .AddColumn("up", ValueType::kInt)
      .SetPrimaryKey({"k"})
      .AddForeignKey({{"up"}, "hub", {"k"}, policy});
  UFILTER_RETURN_NOT_OK(schema.AddTable(std::move(hub)));
  TableSchema pair("pair");
  pair.AddColumn("x", ValueType::kInt)
      .AddColumn("y", ValueType::kInt)
      .AddColumn("v", ValueType::kString)
      .SetPrimaryKey({"x", "y"})
      .AddForeignKey({{"x"}, "hub", {"k"}, policy});
  UFILTER_RETURN_NOT_OK(schema.AddTable(std::move(pair)));
  TableSchema leaf("leaf");
  leaf.AddColumn("k", ValueType::kInt, true)
      .AddColumn("x", ValueType::kInt)
      .AddColumn("y", ValueType::kInt)
      .AddColumn("h", ValueType::kInt, true)
      .SetPrimaryKey({"k"})
      .AddForeignKey({{"x", "y"}, "pair", {"x", "y"}, policy})
      .AddForeignKey({{"h"}, "hub", {"k"}, policy});
  UFILTER_RETURN_NOT_OK(schema.AddTable(std::move(leaf)));

  UFILTER_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                           Database::Create(std::move(schema)));
  const Value null = Value::Null();
  auto i = [](int64_t v) { return Value::Int(v); };
  const std::vector<std::pair<std::string, relational::Row>> rows = {
      {"hub", {i(0), null}},
      {"hub", {i(1), i(0)}},
      {"hub", {i(2), i(1)}},
      {"pair", {i(0), i(0), Value::String("a")}},
      {"pair", {i(0), i(1), Value::String("b")}},
      {"pair", {i(1), i(0), Value::String("c")}},
      {"leaf", {i(0), i(0), i(0), i(0)}},
      {"leaf", {i(1), i(0), i(1), i(1)}},
      {"leaf", {i(2), i(1), i(0), i(2)}},
      {"leaf", {i(3), null, null, i(0)}},
  };
  for (const auto& [table, row] : rows) {
    UFILTER_RETURN_NOT_OK(db->Insert(table, row).status());
  }
  db->Checkpoint();
  return db;
}

MakeDb Lattice(DeletePolicy policy) {
  return [policy] { return MakeLattice(policy); };
}

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

using Alphabet = std::vector<std::pair<std::string, UpdateOp>>;

/// The alphabet, over the chain's t0(k0 PK, v0) <- t1(k1 PK, v1, p1 FK)
/// seeded with keys 0..2 (t1 row r references t0 row r). The ops are
/// chosen to interact: a key deleted or renamed by one op is reinserted
/// or referenced by another, and the non-key delete matches only rows
/// that earlier ops inserted or rewrote.
Alphabet ChainAlphabet() {
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

/// The alphabet over the lattice: the deletes walk the self-referencing
/// chain, the diamond and the two-column FK; the inserts need a two-column
/// or a self-referencing parent that earlier ops may remove or move, and
/// one writes a leaf that shares only x with pair (0, 1); the updates
/// re-point a two-column FK, detach a subtree, move a two-column key
/// (orphaning the leaf on it, as the engine allows) and close a row cycle,
/// which a later delete then walks.
Alphabet LatticeAlphabet() {
  return {
      {"delete root hub", Delete("hub", "k", Value::Int(0))},
      {"delete mid hub", Delete("hub", "k", Value::Int(1))},
      {"delete pair by value", Delete("pair", "v", Value::String("b"))},
      {"insert leaf", Insert("leaf", {{"k", Value::Int(10)},
                                      {"x", Value::Int(1)},
                                      {"y", Value::Int(0)},
                                      {"h", Value::Int(2)}})},
      {"insert leaf beside", Insert("leaf", {{"k", Value::Int(12)},
                                             {"x", Value::Int(0)},
                                             {"y", Value::Int(0)},
                                             {"h", Value::Int(1)}})},
      {"insert orphan leaf", Insert("leaf", {{"k", Value::Int(11)},
                                             {"x", Value::Int(0)},
                                             {"y", Value::Int(5)},
                                             {"h", Value::Int(0)}})},
      {"insert hub child",
       Insert("hub", {{"k", Value::Int(10)}, {"up", Value::Int(2)}})},
      {"insert pair", Insert("pair", {{"x", Value::Int(2)},
                                      {"y", Value::Int(0)},
                                      {"v", Value::String("d")}})},
      {"re-point leaf", Update("leaf", "y", Value::Int(1), "k", Value::Int(0))},
      {"detach mid hub",
       Update("hub", "up", Value::Null(), "k", Value::Int(1))},
      {"move pair",
       Update("pair", "x", Value::Int(2), "v", Value::String("c"))},
      {"loop root hub", Update("hub", "up", Value::Int(0), "k", Value::Int(0))},
      {"close hub cycle",
       Update("hub", "up", Value::Int(2), "k", Value::Int(0))},
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

/// Dry-runs `ops` on a snapshot of a fresh database, checks it left
/// nothing behind, then compares it with execute-and-rollback on the same
/// data.
DryRunOutcome CheckSequence(const MakeDb& make_db,
                            const std::vector<UpdateOp>& ops,
                            const std::string& label, Tally* tally) {
  SCOPED_TRACE(label);
  auto db = make_db();
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

constexpr DeletePolicy kPolicies[] = {
    DeletePolicy::kCascade, DeletePolicy::kSetNull, DeletePolicy::kRestrict};

/// Checks every sequence of up to three ops of `alphabet` on `make_db`.
void CheckEverySequence(const Alphabet& alphabet, const MakeDb& make_db,
                        const std::string& fixture) {
  const size_t n = alphabet.size();
  Tally tally;
  for (size_t len = 1; len <= 3; ++len) {
    size_t combos = 1;
    for (size_t i = 0; i < len; ++i) combos *= n;
    for (size_t code = 0; code < combos; ++code) {
      std::vector<UpdateOp> ops;
      std::string label = fixture + ":";
      for (size_t i = 0, rest = code; i < len; ++i, rest /= n) {
        ops.push_back(alphabet[rest % n].second);
        label += " [" + alphabet[rest % n].first + "]";
      }
      CheckSequence(make_db, ops, label, &tally);
    }
  }
  EXPECT_EQ(tally.cases, static_cast<int>(n + n * n + n * n * n));
  // The scope reaches both verdicts under every fixture.
  EXPECT_GT(tally.by_code[StatusCode::kOk], 0) << fixture;
  EXPECT_GT(tally.by_code[StatusCode::kConstraintViolation], 0) << fixture;
}

std::string PolicyLabel(DeletePolicy policy) {
  return std::string("policy ") + relational::DeletePolicyName(policy);
}

TEST(DryRunTest, EverySequenceUpToThreeOpsMatchesExecution) {
  for (int depth : {2, 3}) {
    for (DeletePolicy policy : kPolicies) {
      CheckEverySequence(ChainAlphabet(), Chain(depth, policy),
                         "depth " + std::to_string(depth) + ", " +
                             PolicyLabel(policy));
    }
  }
}

TEST(DryRunTest, EveryLatticeSequenceUpToThreeOpsMatchesExecution) {
  for (DeletePolicy policy : kPolicies) {
    CheckEverySequence(LatticeAlphabet(), Lattice(policy),
                       "lattice, " + PolicyLabel(policy));
  }
}

/// Op `name` of `alphabet`.
UpdateOp Op(const Alphabet& alphabet, const std::string& name) {
  for (const auto& [label, o] : alphabet) {
    if (label == name) return o;
  }
  ADD_FAILURE() << "no op " << name;
  return UpdateOp{};
}

TEST(DryRunTest, SequencesFindRowsWrittenEarlierInTheSequence) {
  // Spot checks that the enumeration's interactions really happen.
  const Alphabet alphabet = ChainAlphabet();
  auto op = [&](const std::string& name) { return Op(alphabet, name); };
  Tally tally;
  // The inserted row matches the non-key delete.
  DryRunOutcome out = CheckSequence(
      Chain(2, DeletePolicy::kCascade),
      {op("insert fresh key"), op("delete by non-key")}, "insert, delete",
      &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 2);
  // So does the rewritten image.
  out = CheckSequence(Chain(2, DeletePolicy::kCascade),
                      {op("update non-key"), op("delete by non-key")},
                      "update, delete", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 2);
  // A renamed parent key is a valid FK target; the renamed-away one is not.
  out = CheckSequence(Chain(2, DeletePolicy::kRestrict),
                      {op("update parent key"), op("insert dangling FK")},
                      "rename parent, insert child", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  out = CheckSequence(Chain(2, DeletePolicy::kRestrict),
                      {op("update parent key"), op("insert duplicate key")},
                      "rename parent, insert orphan", &tally);
  EXPECT_TRUE(out.failure.IsConstraintViolation()) << out.failure.ToString();
  // A key freed by a cascade can be reused.
  out = CheckSequence(Chain(3, DeletePolicy::kCascade),
                      {op("delete by key"), op("insert duplicate key")},
                      "cascade, reinsert", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 3 + 1);
}

TEST(DryRunTest, LatticeWalksReachEachShape) {
  // Spot checks that the lattice's shapes are really walked.
  const Alphabet alphabet = LatticeAlphabet();
  auto op = [&](const std::string& name) { return Op(alphabet, name); };
  Tally tally;
  // The root's cascade takes every row once: leaf 0 is reached through
  // pair (0, 0) and again through h, and hub 1 and 2 through `up`.
  DryRunOutcome out =
      CheckSequence(Lattice(DeletePolicy::kCascade), {op("delete root hub")},
                    "cascade root", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 10);
  // Under SET NULL, hub 1 and leaves 0 and 1 keep their rows; the NOT NULL
  // pair.x and leaf.h cascade instead. Leaf 0 is deleted after its
  // two-column FK was set to NULL.
  out = CheckSequence(Lattice(DeletePolicy::kSetNull), {op("delete root hub")},
                      "set null root", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 1 + 2 + 2);
  // The self-referencing FK restricts first.
  out = CheckSequence(Lattice(DeletePolicy::kRestrict), {op("delete root hub")},
                      "restrict root", &tally);
  EXPECT_EQ(out.failure.message(),
            "delete from 'hub' restricted: referenced by 'hub'");
  // A two-column FK with no parent names both values.
  out = CheckSequence(Lattice(DeletePolicy::kCascade),
                      {op("insert orphan leaf")}, "orphan leaf", &tally);
  EXPECT_EQ(out.failure.message(),
            "FK violation: leaf -> pair (0, 5) has no referenced row");
  // A cascade through a row cycle erases each row once: the self-loop and
  // the three-hub cycle take the same rows as the plain root delete, and
  // the mid hub's delete reaches the root through the cycle.
  out = CheckSequence(Lattice(DeletePolicy::kCascade),
                      {op("loop root hub"), op("delete root hub")},
                      "self-loop, cascade root", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 1 + 10);
  out = CheckSequence(Lattice(DeletePolicy::kCascade),
                      {op("close hub cycle"), op("delete mid hub")},
                      "cycle, cascade mid", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 1 + 10);
  // The two-column probe finds the rewritten leaf 0 beside leaf 1.
  out = CheckSequence(Lattice(DeletePolicy::kCascade),
                      {op("re-point leaf"), op("delete pair by value")},
                      "re-point, delete pair", &tally);
  EXPECT_TRUE(out.failure.ok()) << out.failure.ToString();
  EXPECT_EQ(out.rows_affected, 1 + 1 + 2);
}

}  // namespace
}  // namespace ufilter
