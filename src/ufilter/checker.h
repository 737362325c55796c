// U-Filter pipeline facade (Fig. 5), split into an explicit two-phase
// lifecycle. Compile a view once (parse, analyze, build + mark the ASGs),
// then *prepare* each distinct update template once (parse, bind, validate,
// STAR-classify) and *execute* it any number of times — execution pays only
// step 3 (data-driven checking) and translation. A bounded LRU plan cache
// keyed by the normalized update text makes Prepare free for repeated
// templates, and CheckBatch merges the step-3 probes of many updates into
// OR-of-predicates queries against the database.
//
// This is the library's primary public entry point:
//
//   auto db = ...;                      // relational::Database
//   auto uf = UFilter::Create(db.get(), kBookViewQuery).value();
//
//   // One-shot (compatibility shim over Prepare + Execute):
//   CheckReport r = uf->Check("FOR $b IN document(...)...", {});
//   if (r.outcome == CheckOutcome::kExecuted) { ... }
//
//   // Prepared-statement style:
//   auto plan = uf->Prepare("FOR $b IN document(...)...");
//   for (...) { CheckReport r = uf->Execute(*plan); ... }
//
//   // Batch style (merged probe queries):
//   std::vector<CheckReport> rs = uf->CheckBatch({u1, u2, ...});
#ifndef UFILTER_UFILTER_CHECKER_H_
#define UFILTER_UFILTER_CHECKER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asg/view_asg.h"
#include "common/result.h"
#include "obs/trace.h"
#include "relational/database.h"
#include "ufilter/datacheck.h"
#include "ufilter/plan_cache.h"
#include "ufilter/prepared.h"
#include "ufilter/star.h"
#include "view/analyzed_view.h"
#include "view/materializer.h"
#include "xml/node.h"
#include "xquery/parser.h"

namespace ufilter::check {

/// Where the pipeline ended for an update.
enum class CheckOutcome {
  kNotRun,          ///< no step has run (a fresh report's explicit state)
  kInvalid,         ///< rejected by step 1 (update validation)
  kUntranslatable,  ///< rejected by step 2 (STAR)
  kDataConflict,    ///< rejected by step 3 (data-driven check)
  kExecuted,        ///< translated (and executed unless apply=false)
  /// The request's deadline expired before any pipeline step ran (rejected
  /// at service admission or purged from the admission queue). Nothing was
  /// executed — retrying is always safe.
  kDeadlineExceeded,
};

const char* CheckOutcomeName(CheckOutcome o);

struct CheckOptions {
  DataCheckStrategy strategy = DataCheckStrategy::kOutside;
  /// When false, translation runs but the database is rolled back (dry run).
  bool apply = true;
  /// When false, steps 1-2 run but step 3 / execution is skipped; the report
  /// carries the STAR classification only.
  bool run_data_check = true;
  /// When false, step 2 (STAR) is skipped and the update is treated as
  /// unconditionally translatable — the "Update" (no checking) baseline of
  /// Figs. 13/14. Default on.
  bool run_star = true;
  /// When false, Check/CheckBatch compile from scratch without consulting or
  /// populating the plan cache (cold-path benchmarking).
  bool use_plan_cache = true;
};

/// Full pipeline report for one update. Starts in the explicit not-run /
/// unclassified state so a half-run report can never read as success.
struct CheckReport {
  CheckOutcome outcome = CheckOutcome::kNotRun;
  /// Rejection reason (invalid / untranslatable / data conflict).
  Status error;
  /// STAR classification (valid once past step 2; kUnclassified before).
  Translatability star_class = Translatability::kUnclassified;
  /// Condition attached by STAR for conditionally translatable updates.
  std::string condition;
  /// Executed relational update sequence.
  std::vector<relational::UpdateOp> translation;
  int64_t rows_affected = 0;
  bool zero_tuple_warning = false;
  std::vector<std::string> probes;
  /// Wall-clock seconds spent per step. On a plan-cache hit steps 1-2 cost
  /// nothing; on a miss they carry the compile cost of this call.
  double step1_seconds = 0;
  double step2_seconds = 0;
  double step3_seconds = 0;
  /// Seconds spent in Prepare (normalization + cache lookup + any compile).
  double prepare_seconds = 0;
  /// The plan came from the cache — this call did zero parse/bind/STAR work.
  bool from_plan_cache = false;

  /// One-paragraph human-readable summary.
  std::string Describe() const;
};

/// \brief A compiled U-Filter instance for one view over one database.
class UFilter {
 public:
  /// Parses and analyzes `view_query`, builds both ASGs and runs the STAR
  /// marking procedure. The database must outlive the returned object.
  static Result<std::unique_ptr<UFilter>> Create(
      relational::Database* db, const std::string& view_query);

  /// Compiles `update_text` into a reusable plan: parse, bind, validate
  /// (step 1) and STAR-classify (step 2) every action. Never returns null;
  /// compile failures travel inside the plan and surface when executed.
  /// Consults the plan cache first (key: normalized text); `cache_hit`, when
  /// non-null, reports whether the plan was served from the cache. `ctx`
  /// scopes the table-statistics reads of probe *planning*: a
  /// snapshot-pinned context lets Prepare run with no lock while a writer
  /// commits concurrently (the physical plans re-resolve tables by name at
  /// execution, so a plan compiled at one epoch replays at any other).
  /// `trace`, when non-null, receives plan_cache / compile stage spans.
  std::shared_ptr<const PreparedUpdate> Prepare(
      const std::string& update_text, bool* cache_hit = nullptr,
      relational::ExecutionContext* ctx = nullptr,
      obs::TraceContext* trace = nullptr);

  /// Runs step 3 + translation for a prepared plan against current data.
  /// Rejects plans prepared against a different UFilter or view definition.
  /// `ctx` is the session's scratch (temp tables, undo log); null means the
  /// database's root context. The same UFilter is shared by all sessions.
  CheckReport Execute(const PreparedUpdate& prepared,
                      const CheckOptions& options = {},
                      relational::ExecutionContext* ctx = nullptr);

  /// Attempts the check without mutating the database at all: probes and
  /// translation run normally, but the translated ops are *validated*
  /// read-only (relational/dryrun.h) instead of executed-and-rolled-back.
  /// Returns the report when the result is guaranteed equal to
  /// Execute(apply=false); nullopt when it is not — apply=true requests,
  /// non-outside strategies reaching step 3, multi-action statements, and
  /// op sequences the validator cannot decide — in which case the caller
  /// must fall back to Execute (the service routes that through its writer
  /// lane). This is what lets check-only traffic run under a shared reader
  /// lock.
  std::optional<CheckReport> TryCheckReadOnly(
      const PreparedUpdate& prepared, const CheckOptions& options = {},
      relational::ExecutionContext* ctx = nullptr);

  /// One-shot check: Prepare (through the plan cache) + Execute.
  CheckReport Check(const std::string& update_text,
                    const CheckOptions& options = {},
                    relational::ExecutionContext* ctx = nullptr);

  /// Checks a caller-parsed statement (compiles it transiently; the plan
  /// cache is not consulted since there is no source text to key on).
  CheckReport CheckParsed(const xq::UpdateStmt& stmt,
                          const CheckOptions& options = {},
                          relational::ExecutionContext* ctx = nullptr);

  /// Checks N updates, merging the step-3 anchor/victim probes of updates
  /// that share a probe shape (same target relation chain) into single
  /// OR-of-predicates queries with per-update result demultiplexing.
  /// Reports align positionally with `updates`; updates are executed in
  /// order. Multi-action statements fall back to the unbatched path.
  ///
  /// Snapshot semantics: all merged probes run against the batch-entry
  /// state, *before* any update of the batch executes. Insert key conflicts
  /// introduced within the batch are still caught at execute time (engine
  /// constraints / duplication consistency), but anchor existence and
  /// delete/replace victim sets are judged against the entry snapshot — if
  /// an earlier update of the same batch moves rows into or out of a later
  /// update's predicate scope, the later translation acts on the stale
  /// victim set instead of re-probing. Batches whose members may interfere
  /// through overlapping predicates should be checked sequentially with
  /// Check, or validated with apply=false first.
  std::vector<CheckReport> CheckBatch(const std::vector<std::string>& updates,
                                      const CheckOptions& options = {},
                                      relational::ExecutionContext* ctx =
                                          nullptr);

  /// Materializes the current view content.
  Result<xml::NodePtr> MaterializeView();

  const view::AnalyzedView& analyzed_view() const { return *view_; }
  const asg::ViewAsg& view_asg() const { return *gv_; }
  const asg::BaseAsg& base_asg() const { return gd_; }
  relational::Database* database() { return db_; }
  /// Seconds the STAR marking procedure took at Create time.
  double marking_seconds() const { return marking_seconds_; }

  /// The prepared-plan cache (tests tune capacity / observe LRU order).
  PlanCache& plan_cache() { return plan_cache_; }
  const PlanCache& plan_cache() const { return plan_cache_; }

 private:
  explicit UFilter(relational::Database* db)
      : db_(db), plan_cache_(&db->registry()) {}

  /// Compiles all actions of `stmt` (steps 1-2); fills per-action verdicts
  /// and the step-1/2 compile timings. With `compute_star` false step 2 is
  /// skipped (the run_star=false baseline must not pay STAR anywhere) —
  /// only cache-bypassing callers may skip it, since a cached plan must
  /// serve later run_star=true executions. `ctx` scopes the probe planner's
  /// table-statistics reads (null = root context / live tables).
  void CompileActions(const xq::UpdateStmt& stmt, bool compute_star,
                      std::vector<PreparedAction>* actions,
                      double* step1_seconds, double* step2_seconds,
                      relational::ExecutionContext* ctx = nullptr);

  /// Shared rejection prologue of Execute / TryCheckReadOnly: a plan
  /// prepared against another UFilter / view signature, or one whose parse
  /// failed, yields the rejection report; nullopt means executable.
  std::optional<CheckReport> RejectUnusablePlan(
      const PreparedUpdate& prepared) const;

  /// Full compile of one update text into a fresh plan (no cache).
  std::shared_ptr<PreparedUpdate> CompileUpdate(
      const std::string& update_text, const std::string& normalized,
      bool compute_star, relational::ExecutionContext* ctx = nullptr);

  /// Replays precompiled actions: the per-action step-1/2 verdict gates plus
  /// step 3, with the multi-action atomic savepoint protocol.
  CheckReport ExecuteActions(const std::vector<PreparedAction>& actions,
                             const CheckOptions& options,
                             relational::ExecutionContext* ctx);

  /// Runs one precompiled action (gates + step 3). `injected`, when
  /// non-null, supplies batch-merged probe results to the data checker.
  /// A non-null `read_only_undecided` switches step 3 into read-only
  /// validation (ApplyMode::kReadOnly) and reports whether the validator
  /// punted (in which case the returned report must be discarded).
  CheckReport ExecuteAction(const PreparedAction& action,
                            const CheckOptions& options,
                            relational::ExecutionContext* ctx,
                            const InjectedProbes* injected = nullptr,
                            bool* read_only_undecided = nullptr);

  relational::Database* db_ = nullptr;
  xq::ViewQuery query_;
  std::unique_ptr<view::AnalyzedView> view_;
  std::unique_ptr<asg::ViewAsg> gv_;
  asg::BaseAsg gd_;
  double marking_seconds_ = 0;
  /// view_->Signature(), cached at Create (checked on every Execute).
  uint64_t view_signature_ = 0;
  PlanCache plan_cache_;
};

}  // namespace ufilter::check

#endif  // UFILTER_UFILTER_CHECKER_H_
