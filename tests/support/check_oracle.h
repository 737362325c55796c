// Execute-and-roll-back oracle for check-only statements: what a check
// reports when the statement really executes on the live tables inside a
// savepoint that is then undone. Every check-only path runs on an overlay
// instead (relational/dryrun.h), so this is an oracle none of them share.
#ifndef UFILTER_TESTS_SUPPORT_CHECK_ORACLE_H_
#define UFILTER_TESTS_SUPPORT_CHECK_ORACLE_H_

#include <string>

#include "relational/database.h"
#include "ufilter/checker.h"

namespace ufilter::test_support {

/// Checks `text` by execution: Check with apply=true on a fresh context of
/// `uf`'s database inside a savepoint, then Rollback. The writer guard
/// publishes nothing, since nothing is left to publish.
inline check::CheckReport CheckByExecution(check::UFilter* uf,
                                           const std::string& text,
                                           check::CheckOptions options) {
  relational::Database* db = uf->database();
  relational::Database::WriterGuard guard(db);
  guard.AbandonPublish();
  auto ctx = db->CreateContext();
  const size_t mark = ctx->Begin();
  options.apply = true;
  check::CheckReport report = uf->Check(text, options, ctx.get());
  ctx->Rollback(mark);
  return report;
}

}  // namespace ufilter::test_support

#endif  // UFILTER_TESTS_SUPPORT_CHECK_ORACLE_H_
