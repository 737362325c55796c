// Step 3: data-driven translatability checking (Section 6).
//
// The update-context check (6.1) probes whether the element the update
// inserts into / deletes from exists in the view. The update-point check
// (6.2) detects conflicts in the updated data itself, with three strategies:
//   - internal: map the view to a flat relational view; the probe must fetch
//     *all* view columns to build a complete relational-view tuple,
//   - external-hybrid: translate without checking, execute, let the engine
//     report conflicts (key violations / zero-tuple warnings), roll back,
//   - external-outside: probe each target relation first, then execute.
#ifndef UFILTER_UFILTER_DATACHECK_H_
#define UFILTER_UFILTER_DATACHECK_H_

#include <memory>
#include <string>
#include <vector>

#include "relational/planner.h"
#include "relational/query.h"
#include "relational/sqlgen.h"
#include "ufilter/star.h"
#include "ufilter/translator.h"
#include "ufilter/update_binding.h"

namespace ufilter::check {

/// Update-point checking strategy (Section 6.2).
enum class DataCheckStrategy { kInternal, kHybrid, kOutside };

const char* DataCheckStrategyName(DataCheckStrategy s);

/// One step-3 probe, composed and physically compiled once per update
/// shape. The query (alias layout) is frozen with the update's WHERE
/// literals as parameter slots; `sql` is its SQL rendered once, into which
/// each request's values are spliced; `plan` is the cost-based planner's
/// output, replayed with the request's values and zero name resolution. A
/// null `plan` with `present` set means planning was deferred (e.g. an
/// empty FROM list) — the checker plans the bound query on demand.
struct CompiledProbe {
  bool present = false;
  relational::SelectQuery query;
  relational::SqlTemplate sql;
  std::shared_ptr<const relational::PhysicalPlan> plan;
};

/// The compiled probe plans of one prepared action (see PreparedAction).
struct CompiledProbeSet {
  CompiledProbe anchor;  ///< context probe (6.1)
  CompiledProbe victim;  ///< delete/replace victim enumeration
  CompiledProbe wide;    ///< internal strategy's full-width tuple probe
};

/// Outcome of step 3 plus translation/execution: the same report whether
/// the ops ran on live stores or on an overlay.
struct DataCheckReport {
  bool passed = false;
  Status failure;  ///< DataConflict / ConstraintViolation when !passed
  /// The executed relational update sequence (the `U` of Definition 1).
  std::vector<relational::UpdateOp> translation;
  int64_t rows_affected = 0;
  /// Delete matched nothing ("zero tuples deleted" warning, update u12).
  bool zero_tuple_warning = false;
  /// SQL of the probe queries issued, for logging/EXPERIMENTS.
  std::vector<std::string> probes;
};

/// \brief Runs step 3 and, when it passes, executes the translation.
class DataChecker {
 public:
  /// Probes, translation reads and the translated ops all go through
  /// `stores`: the statement's live stores for an apply, its overlay
  /// (relational/dryrun.h) for a check-only statement. `ctx` scopes probe
  /// planning; a null `ctx` means the database's root context.
  DataChecker(relational::Database* db, relational::ExecutionContext* ctx,
              relational::TableStores* stores, const view::AnalyzedView* view,
              const asg::ViewAsg* gv)
      : db_(db),
        ctx_(ctx != nullptr ? ctx : db->root_context()),
        stores_(stores),
        view_(view),
        gv_(gv),
        translator_(db, view, gv, ctx_, stores) {}

  /// Checks and executes `update` (which already passed steps 1 and 2 with
  /// `verdict`) on the stores. A failed check may leave writes in them: the
  /// caller rolls its statement back (live stores) or discards them (an
  /// overlay). When `compiled` is non-null its prepared plans are bound to
  /// `params` (the request's literal values by parameter slot) and
  /// replayed instead of composing and planning the probe queries from
  /// scratch.
  Result<DataCheckReport> CheckAndExecute(
      const BoundUpdate& update, const StarVerdict& verdict,
      DataCheckStrategy strategy, const CompiledProbeSet* compiled = nullptr,
      const std::vector<Value>* params = nullptr);

 private:
  Result<DataCheckReport> RunDelete(const BoundUpdate& update,
                                    const StarVerdict& verdict,
                                    DataCheckStrategy strategy,
                                    const CompiledProbeSet* compiled);
  Result<DataCheckReport> RunInsert(const BoundUpdate& update,
                                    const StarVerdict& verdict,
                                    DataCheckStrategy strategy,
                                    const CompiledProbeSet* compiled);
  Result<DataCheckReport> RunReplace(const BoundUpdate& update,
                                     const StarVerdict& verdict,
                                     DataCheckStrategy strategy,
                                     const CompiledProbeSet* compiled);

  /// Context check (6.1): DataConflict when the context element does not
  /// exist in the view. Insert reads every context row into `rows`; delete
  /// and replace pass a null `rows` and only ask whether one exists, which
  /// stops the probe at its first row.
  Status CheckContext(const BoundUpdate& update,
                      relational::SelectQuery* query_out,
                      DataCheckReport* report,
                      const CompiledProbeSet* compiled,
                      relational::QueryResult* rows);

  /// Victim probe: fills the query and returns its rows.
  Result<relational::QueryResult> FetchVictims(
      const BoundUpdate& update, relational::SelectQuery* query_out,
      DataCheckReport* report, const CompiledProbeSet* compiled);

  /// Internal strategy's wide probe (full-width relational-view tuple):
  /// replays the compiled plan when available, else composes + plans.
  Status RunWideProbe(const BoundUpdate& update, DataCheckReport* report,
                      const CompiledProbeSet* compiled);

  /// The request's copy of one probe: `compiled` bound to the request's
  /// values when present, else composed by `compose`. Fills the query and
  /// its SQL; returns the plan to replay (null: plan the query on demand).
  template <typename Compose>
  Result<const relational::PhysicalPlan*> BindProbe(
      const CompiledProbe* compiled, Compose compose,
      relational::SelectQuery* query, std::string* sql);

  /// Runs a probe query, replaying `plan` with the request's values when
  /// there is one, and returns whether it has a row. Fills `rows` with
  /// every row; with a null `rows` it asks only whether one exists, which
  /// stops at the first row.
  Result<bool> RunProbe(const relational::SelectQuery& query,
                        const relational::PhysicalPlan* plan,
                        relational::QueryResult* rows);

  /// Executes translated ops on the stores and fills rows_affected.
  Status ExecuteOps(const std::vector<relational::UpdateOp>& ops,
                    DataCheckReport* report);

  /// Outside strategy: pre-probe inserts for key conflicts (PQ3-style).
  Status ProbeInsertConflicts(const std::vector<relational::UpdateOp>& ops,
                              DataCheckReport* report);

  relational::Database* db_;
  relational::ExecutionContext* ctx_;
  relational::TableStores* stores_;
  const view::AnalyzedView* view_;
  const asg::ViewAsg* gv_;
  Translator translator_;
  /// Set for the duration of one CheckAndExecute call.
  const std::vector<Value>* params_ = nullptr;
};

}  // namespace ufilter::check

#endif  // UFILTER_UFILTER_DATACHECK_H_
