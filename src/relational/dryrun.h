// Read-only validation of a translated update sequence: runs the ops
// through Database's own insert/delete/update code against a throwaway
// overlay of the tables a context resolves, then discards the overlay. It
// reports whether executing them would succeed and how many rows they
// would affect, and touches neither the database nor the context.
//
// This is what lets check-only traffic run concurrently: a dry-run check
// (apply=false, outside strategy) validates its translation here against
// its context's pinned MVCC snapshot — no lock held, no execute/rollback
// in the writer lane. The constraint checks (NOT NULL / CHECK / domain, FK
// existence, unique keys) and the FK delete-policy walk are the engine's
// own, so the verdict is the one execution would give for any op sequence.
// tests/relational/dryrun_test.cc enumerates small sequences against
// execute-and-rollback.
#ifndef UFILTER_RELATIONAL_DRYRUN_H_
#define UFILTER_RELATIONAL_DRYRUN_H_

#include <vector>

#include "relational/database.h"
#include "relational/sqlgen.h"

namespace ufilter::relational {

/// Outcome of a read-only op-sequence validation.
struct DryRunOutcome {
  /// OK means executing the ops would succeed; otherwise the status real
  /// execution fails with (it stops at the first failing op).
  Status failure = Status::OK();
  /// Rows the ops before any failure would affect: one per insert, each
  /// deleted row (cascades included, SET NULL rewrites not), each updated
  /// row.
  int64_t rows_affected = 0;
};

/// Validates `ops` read-only against the tables `ctx` resolves (null ctx:
/// the live base tables). Never mutates either.
DryRunOutcome DryRunOps(const Database& db, const ExecutionContext* ctx,
                        const std::vector<UpdateOp>& ops);

}  // namespace ufilter::relational

#endif  // UFILTER_RELATIONAL_DRYRUN_H_
