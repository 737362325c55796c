// Execute-and-rollback oracle for DryRunOps: what the ops do when they
// really run through Database, inside a savepoint that is then undone.
#ifndef UFILTER_TESTS_SUPPORT_OP_ORACLE_H_
#define UFILTER_TESTS_SUPPORT_OP_ORACLE_H_

#include <vector>

#include "relational/database.h"
#include "relational/dryrun.h"
#include "relational/sqlgen.h"

namespace ufilter::test_support {

/// Runs `ops` through `db`'s mutation calls on `ctx` (unpinned), stopping
/// at the first failure and counting rows as step 3's execution does, then
/// rolls everything back. Returns the result in DryRunOutcome's terms.
inline relational::DryRunOutcome ExecuteAndRollBack(
    relational::Database* db, relational::ExecutionContext* ctx,
    const std::vector<relational::UpdateOp>& ops) {
  relational::DryRunOutcome out;
  const size_t mark = ctx->Begin();
  for (const relational::UpdateOp& op : ops) {
    switch (op.kind) {
      case relational::UpdateOpKind::kInsert: {
        auto r = db->InsertValues(ctx, op.table, op.values);
        out.failure = r.status();
        if (r.ok()) out.rows_affected += 1;
        break;
      }
      case relational::UpdateOpKind::kDelete: {
        auto r = db->DeleteWhere(ctx, op.table, op.where);
        out.failure = r.status();
        if (r.ok()) out.rows_affected += r->deleted_rows;
        break;
      }
      case relational::UpdateOpKind::kUpdate: {
        auto r = db->UpdateWhere(ctx, op.table, op.values, op.where);
        out.failure = r.status();
        if (r.ok()) out.rows_affected += *r;
        break;
      }
    }
    if (!out.failure.ok()) break;
  }
  ctx->Rollback(mark);
  return out;
}

}  // namespace ufilter::test_support

#endif  // UFILTER_TESTS_SUPPORT_OP_ORACLE_H_
