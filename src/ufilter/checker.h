// U-Filter pipeline facade (Fig. 5), split into an explicit two-phase
// lifecycle. Compile a view once (parse, analyze, build + mark the ASGs),
// then *prepare* each update and *execute* it any number of times —
// execution pays only step 3 (data-driven checking) and translation.
// Prepare compiles each update *shape* once (parse, bind, STAR-classify,
// plan the step-3 probes with parameter slots) into a bounded LRU plan
// cache keyed by the shape, and binds each request's literal values into
// the cached shape (WHERE predicates, payload, probe slots) before running
// the request's own step-1 validation.
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
  /// When false, Check compiles each text for itself without consulting
  /// or populating the plan cache (cold-path benchmarking).
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

  /// Prepares `update_text` into a reusable plan: its shape's compile
  /// (parse, bind, STAR-classify every action, plan the step-3 probes)
  /// bound to this text's literal values, then validated (step 1). Never
  /// returns null; compile failures travel inside the plan and surface when
  /// executed. Looks the shape up in the plan cache first; `cache_hit`,
  /// when non-null, reports whether the shape came from the cache. A text
  /// that does not lift or parse, or whose values the parser would reject,
  /// is compiled for this request alone and never enters the cache. `ctx`
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
  /// translation run normally, but the translated ops run through the
  /// engine on a throwaway overlay (relational/dryrun.h) instead of being
  /// executed and rolled back. Returns the report Execute(apply=false)
  /// would give; nullopt for what cannot run this way — apply=true
  /// requests, non-outside strategies reaching step 3, and multi-action
  /// statements (a later action's probes must see the earlier actions'
  /// writes, which the overlay does not show to queries) — in which case
  /// the caller must fall back to Execute (the service routes that through
  /// its writer lane). This is what lets check-only traffic run against a
  /// pinned snapshot with no lock held.
  std::optional<CheckReport> TryCheckReadOnly(
      const PreparedUpdate& prepared, const CheckOptions& options = {},
      relational::ExecutionContext* ctx = nullptr);

  /// One-shot check: Prepare (through the plan cache) + Execute.
  CheckReport Check(const std::string& update_text,
                    const CheckOptions& options = {},
                    relational::ExecutionContext* ctx = nullptr);

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

  /// Compiles `stmt` into a shape: binds every action, STAR-classifies it
  /// (unless `compute_star` is false: the run_star=false baseline must not
  /// pay STAR anywhere, so only cache-bypassing callers may skip it) and
  /// composes and plans its step-3 probes with parameter slots. `ctx`
  /// scopes the probe planner's table-statistics reads (null = root
  /// context / live tables).
  std::shared_ptr<CompiledShape> CompileShape(
      std::unique_ptr<xq::UpdateStmt> stmt, bool compute_star,
      relational::ExecutionContext* ctx);

  /// Compiles `text` for one request: parses it, compiles its shape and
  /// binds the text's own values. With `lifted` (the text's lift) the shape
  /// also enters the plan cache, unless binding it would read a value: a
  /// condition comparing two literals is rejected with an error quoting
  /// both.
  std::shared_ptr<const PreparedUpdate> CompileUpdate(
      const std::string& text, const xq::LiftedUpdate* lifted,
      bool compute_star, relational::ExecutionContext* ctx);

  /// Binds a request's literal values (by parameter slot) into `shape`:
  /// fills each action's WHERE predicates, builds its payload, and runs the
  /// request's step-1 validation.
  std::shared_ptr<PreparedUpdate> Bind(
      std::shared_ptr<const CompiledShape> shape, std::vector<Value> params,
      std::string normalized);

  /// Shared rejection prologue of Execute / TryCheckReadOnly: a plan
  /// prepared against another UFilter / view signature, or one whose parse
  /// failed, yields the rejection report; nullopt means executable.
  std::optional<CheckReport> RejectUnusablePlan(
      const PreparedUpdate& prepared) const;

  /// Replays a prepared update's actions: the per-action step-1/2 verdict
  /// gates plus step 3, with the multi-action atomic savepoint protocol.
  CheckReport ExecuteActions(const PreparedUpdate& prepared,
                             const CheckOptions& options,
                             relational::ExecutionContext* ctx);

  /// Runs one prepared action (gates + step 3); `params` are its request's
  /// literal values. `read_only` runs step 3 in ApplyMode::kReadOnly (the
  /// translated ops run on a throwaway overlay) with the same verdict as
  /// kDryRun.
  CheckReport ExecuteAction(const PreparedAction& action,
                            const std::vector<Value>& params,
                            const CheckOptions& options,
                            relational::ExecutionContext* ctx,
                            bool read_only = false);

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
