#include "ufilter/checker.h"

#include <chrono>
#include <map>
#include <utility>

#include "relational/planner.h"
#include "ufilter/translator.h"
#include "ufilter/update_binding.h"
#include "ufilter/validation.h"
#include "xquery/normalize.h"

namespace ufilter::check {

namespace {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Whether executing `action` under `options` would run step 3 (the only
/// phase that touches data). Shared by TryCheckReadOnly's punt decision and
/// CheckBatch's probe-merge planning so neither can drift from
/// ExecuteAction's actual gating.
bool ReachesStep3(const PreparedAction& action, const CheckOptions& options) {
  return action.bound_ok && options.run_data_check &&
         !(options.run_star && action.star_computed &&
           action.star.result == Translatability::kUntranslatable);
}

}  // namespace

const char* CheckOutcomeName(CheckOutcome o) {
  switch (o) {
    case CheckOutcome::kNotRun:
      return "not run";
    case CheckOutcome::kInvalid:
      return "invalid";
    case CheckOutcome::kUntranslatable:
      return "untranslatable";
    case CheckOutcome::kDataConflict:
      return "data conflict";
    case CheckOutcome::kExecuted:
      return "executed";
    case CheckOutcome::kDeadlineExceeded:
      return "deadline exceeded";
  }
  return "?";
}

std::string CheckReport::Describe() const {
  std::string out = CheckOutcomeName(outcome);
  if (outcome == CheckOutcome::kNotRun) return out;
  if (outcome == CheckOutcome::kExecuted) {
    out += " (" + std::string(TranslatabilityName(star_class));
    if (!condition.empty()) out += ", condition: " + condition;
    out += "), " + std::to_string(rows_affected) + " row(s) affected";
    if (zero_tuple_warning) out += " [warning: zero tuples matched]";
    if (!translation.empty()) {
      out += "\n" + relational::UpdateSequenceToSql(translation);
    }
  } else {
    out += ": " + error.ToString();
  }
  return out;
}

Result<std::unique_ptr<UFilter>> UFilter::Create(
    relational::Database* db, const std::string& view_query) {
  auto uf = std::unique_ptr<UFilter>(new UFilter(db));
  UFILTER_ASSIGN_OR_RETURN(uf->query_, xq::ParseViewQuery(view_query));
  UFILTER_ASSIGN_OR_RETURN(
      uf->view_, view::AnalyzedView::Analyze(uf->query_, &db->schema()));
  UFILTER_ASSIGN_OR_RETURN(uf->gv_, asg::ViewAsg::Build(*uf->view_));
  uf->gd_ = asg::BaseAsg::Build(*uf->view_);
  double t0 = Now();
  UFILTER_RETURN_NOT_OK(MarkViewAsg(uf->gv_.get(), uf->gd_));
  uf->marking_seconds_ = Now() - t0;
  uf->view_signature_ = uf->view_->Signature();
  return uf;
}

// ---------------------------------------------------------------------------
// Compile phase (steps 1-2, schema-level only)
// ---------------------------------------------------------------------------

void UFilter::CompileActions(const xq::UpdateStmt& stmt, bool compute_star,
                             std::vector<PreparedAction>* actions,
                             double* step1_seconds, double* step2_seconds,
                             relational::ExecutionContext* ctx) {
  db_->counters().updates_compiled->Inc();
  // Probe composition is schema-only, but probe *planning* reads table
  // statistics — scope both to `ctx` so a snapshot-pinned compile touches
  // no live table state.
  Translator translator(db_, view_.get(), gv_.get(), ctx);
  relational::Planner planner(db_, ctx);
  // Composes one step-3 probe and compiles it to a physical plan. A compose
  // failure leaves the slot absent (the checker recomposes — and surfaces
  // the same error — at execute time); a planning failure keeps the query
  // but no plan (the checker plans on demand).
  auto compile_probe = [&](Result<relational::SelectQuery> query,
                           CompiledProbe* out) {
    if (!query.ok()) return;
    out->present = true;
    out->query = std::move(*query);
    out->sql = out->query.ToSql();
    if (out->query.tables.empty()) return;  // trivial probe, nothing to plan
    auto plan = planner.Compile(out->query);
    if (plan.ok()) {
      out->plan = std::make_shared<const relational::PhysicalPlan>(
          std::move(*plan));
    }
  };
  for (const xq::UpdateAction& action : stmt.actions) {
    PreparedAction pa;

    // ---- Step 1: update validation --------------------------------------
    double t0 = Now();
    auto bound = BindUpdateAction(*view_, *gv_, stmt, action);
    if (!bound.ok()) {
      pa.step1_error = bound.status();
      *step1_seconds += Now() - t0;
      actions->push_back(std::move(pa));
      continue;
    }
    pa.bound = *bound;
    Status valid = ValidateUpdate(*gv_, pa.bound);
    *step1_seconds += Now() - t0;
    if (!valid.ok()) {
      pa.step1_error = valid;
      actions->push_back(std::move(pa));
      continue;
    }
    pa.bound_ok = true;

    // ---- Step 2: schema-driven translatability reasoning (STAR) ---------
    if (compute_star) {
      t0 = Now();
      pa.star = CheckStar(*gv_, pa.bound.target_node, pa.bound.op);
      pa.star_computed = true;
      db_->counters().star_checks->Inc();
      *step2_seconds += Now() - t0;
    }

    // ---- Physical probe plans (replayed by step 3, zero name lookups) ----
    // Composed even for STAR-untranslatable actions: a run_star=false
    // execution of this plan still reaches step 3. The cost lands in the
    // caller's prepare_seconds, not the step-1 (validation) bucket.
    compile_probe(translator.ComposeAnchorProbe(pa.bound), &pa.probes.anchor);
    if (pa.bound.op == xq::UpdateOpType::kDelete ||
        pa.bound.op == xq::UpdateOpType::kReplace) {
      compile_probe(translator.ComposeVictimProbe(pa.bound),
                    &pa.probes.victim);
    }
    if (pa.bound.op == xq::UpdateOpType::kDelete ||
        pa.bound.op == xq::UpdateOpType::kInsert) {
      compile_probe(translator.ComposeWideProbe(pa.bound), &pa.probes.wide);
    }
    actions->push_back(std::move(pa));
  }
}

std::shared_ptr<PreparedUpdate> UFilter::CompileUpdate(
    const std::string& update_text, const std::string& normalized,
    bool compute_star, relational::ExecutionContext* ctx) {
  auto plan = std::shared_ptr<PreparedUpdate>(new PreparedUpdate());
  plan->normalized_text_ = normalized;
  plan->owner_ = this;
  plan->view_signature_ = view_signature_;
  double t0 = Now();
  auto stmt = xq::ParseUpdate(update_text);
  plan->step1_seconds_ = Now() - t0;
  if (!stmt.ok()) {
    plan->parse_error_ = stmt.status();
    return plan;
  }
  plan->stmt_ = std::make_unique<xq::UpdateStmt>(std::move(*stmt));
  CompileActions(*plan->stmt_, compute_star, &plan->actions_,
                 &plan->step1_seconds_, &plan->step2_seconds_, ctx);
  return plan;
}

std::shared_ptr<const PreparedUpdate> UFilter::Prepare(
    const std::string& update_text, bool* cache_hit,
    relational::ExecutionContext* ctx, obs::TraceContext* trace) {
  std::string normalized;
  std::shared_ptr<const PreparedUpdate> hit;
  {
    obs::ScopedSpan span(trace, obs::Stage::kPlanCache);
    normalized = xq::NormalizeUpdateText(update_text);
    hit = plan_cache_.Lookup(normalized);
  }
  if (hit != nullptr) {
    if (cache_hit != nullptr) *cache_hit = true;
    return hit;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  // Cached plans always carry STAR: a later Execute with run_star=true must
  // be able to consume this plan.
  obs::ScopedSpan span(trace, obs::Stage::kCompile);
  std::shared_ptr<PreparedUpdate> plan =
      CompileUpdate(update_text, normalized, /*compute_star=*/true, ctx);
  plan_cache_.Insert(normalized, plan);
  return plan;
}

// ---------------------------------------------------------------------------
// Execute phase (step 3 + translation)
// ---------------------------------------------------------------------------

std::optional<CheckReport> UFilter::RejectUnusablePlan(
    const PreparedUpdate& prepared) const {
  CheckReport report;
  if (prepared.owner() != this ||
      prepared.view_signature() != view_signature_) {
    report.outcome = CheckOutcome::kInvalid;
    report.error = Status::InvalidUpdate(
        "prepared update was compiled against a different UFilter/view; "
        "re-Prepare it against this instance");
    return report;
  }
  if (!prepared.parsed()) {
    report.outcome = CheckOutcome::kInvalid;
    report.error = prepared.parse_error();
    return report;
  }
  return std::nullopt;
}

CheckReport UFilter::Execute(const PreparedUpdate& prepared,
                             const CheckOptions& options,
                             relational::ExecutionContext* ctx) {
  if (ctx == nullptr) ctx = db_->root_context();
  if (std::optional<CheckReport> rejected = RejectUnusablePlan(prepared)) {
    return *rejected;
  }
  return ExecuteActions(prepared.actions(), options, ctx);
}

std::optional<CheckReport> UFilter::TryCheckReadOnly(
    const PreparedUpdate& prepared, const CheckOptions& options,
    relational::ExecutionContext* ctx) {
  if (options.apply) return std::nullopt;  // applies go to the writer lane
  if (ctx == nullptr) ctx = db_->root_context();
  if (std::optional<CheckReport> rejected = RejectUnusablePlan(prepared)) {
    return rejected;
  }
  const std::vector<PreparedAction>& actions = prepared.actions();
  if (actions.empty()) {
    // Data is never touched: serve the same report ExecuteActions builds.
    return ExecuteActions(actions, options, ctx);
  }
  // The multi-action protocol checks each action against the state left by
  // the previous ones (inside a savepoint) — inherently execute-and-rollback.
  if (actions.size() > 1) return std::nullopt;
  const PreparedAction& action = actions[0];
  // Only the outside strategy checks before executing; hybrid/internal rely
  // on engine execution to surface conflicts, so they cannot run read-only.
  if (ReachesStep3(action, options) &&
      options.strategy != DataCheckStrategy::kOutside) {
    return std::nullopt;
  }
  bool undecided = false;
  CheckReport report =
      ExecuteAction(action, options, ctx, nullptr, &undecided);
  if (undecided) return std::nullopt;
  return report;
}

CheckReport UFilter::ExecuteActions(const std::vector<PreparedAction>& actions,
                                    const CheckOptions& options,
                                    relational::ExecutionContext* ctx) {
  if (actions.empty()) {
    CheckReport report;
    report.outcome = CheckOutcome::kInvalid;
    report.error = Status::InvalidUpdate("update statement has no action");
    return report;
  }
  if (actions.size() == 1) {
    return ExecuteAction(actions[0], options, ctx);
  }
  // Multi-action UPDATE block: check and apply atomically — every action
  // must pass or nothing is applied.
  CheckReport combined;
  if (options.run_star) {
    combined.star_class = Translatability::kUnconditionallyTranslatable;
  }
  size_t savepoint = ctx->Begin();
  for (const PreparedAction& action : actions) {
    CheckOptions per_action = options;
    per_action.apply = true;  // applied inside the outer savepoint
    CheckReport r = ExecuteAction(action, per_action, ctx);
    combined.step3_seconds += r.step3_seconds;
    if (r.outcome != CheckOutcome::kExecuted) {
      ctx->Rollback(savepoint);
      r.step3_seconds = combined.step3_seconds;
      return r;
    }
    // Keep the weakest classification across actions (conditional beats
    // unconditional).
    if (r.star_class != Translatability::kUnclassified &&
        static_cast<int>(r.star_class) <
            static_cast<int>(combined.star_class)) {
      combined.star_class = r.star_class;
    }
    if (!r.condition.empty()) {
      if (!combined.condition.empty()) combined.condition += " + ";
      combined.condition += r.condition;
    }
    combined.rows_affected += r.rows_affected;
    combined.zero_tuple_warning |= r.zero_tuple_warning;
    for (auto& op : r.translation) combined.translation.push_back(op);
    for (auto& p : r.probes) combined.probes.push_back(p);
  }
  if (options.apply) {
    ctx->Commit(savepoint);
  } else {
    ctx->Rollback(savepoint);
  }
  combined.outcome = CheckOutcome::kExecuted;
  return combined;
}

CheckReport UFilter::ExecuteAction(const PreparedAction& action,
                                   const CheckOptions& options,
                                   relational::ExecutionContext* ctx,
                                   const InjectedProbes* injected,
                                   bool* read_only_undecided) {
  if (read_only_undecided != nullptr) *read_only_undecided = false;
  CheckReport report;
  if (!action.bound_ok) {
    report.outcome = CheckOutcome::kInvalid;
    report.error = action.step1_error;
    return report;
  }

  // Step 2's verdict was precomputed at Prepare; apply its gate here. A
  // plan compiled without STAR (cache-bypassing run_star=false compile)
  // that is nevertheless executed with the gate on classifies on the fly.
  StarVerdict verdict;  // defaults to unconditionally translatable
  if (options.run_star) {
    if (action.star_computed) {
      verdict = action.star;
    } else {
      double t0 = Now();
      verdict = CheckStar(*gv_, action.bound.target_node, action.bound.op);
      db_->counters().star_checks->Inc();
      report.step2_seconds += Now() - t0;
    }
    report.star_class = verdict.result;
    report.condition = verdict.condition;
    if (verdict.result == Translatability::kUntranslatable) {
      report.outcome = CheckOutcome::kUntranslatable;
      report.error = Status::Untranslatable(verdict.reason);
      return report;
    }
  }
  if (!options.run_data_check) {
    report.outcome = CheckOutcome::kExecuted;
    return report;
  }

  // ---- Step 3: data-driven translatability checking + translation --------
  double t0 = Now();
  DataChecker checker(db_, ctx, view_.get(), gv_.get());
  ApplyMode mode = read_only_undecided != nullptr
                       ? ApplyMode::kReadOnly
                       : (options.apply ? ApplyMode::kApply
                                        : ApplyMode::kDryRun);
  auto data = checker.CheckAndExecute(action.bound, verdict, options.strategy,
                                      mode, injected, &action.probes);
  report.step3_seconds = Now() - t0;
  if (data.ok() && data->undecided) {
    // Read-only validation punted; the caller re-runs via Execute.
    if (read_only_undecided != nullptr) *read_only_undecided = true;
    return report;
  }
  if (!data.ok()) {
    report.outcome = CheckOutcome::kDataConflict;
    report.error = data.status();
    return report;
  }
  report.translation = data->translation;
  report.rows_affected = data->rows_affected;
  report.zero_tuple_warning = data->zero_tuple_warning;
  report.probes = data->probes;
  if (!data->passed) {
    report.outcome = CheckOutcome::kDataConflict;
    report.error = data->failure;
    return report;
  }
  report.outcome = CheckOutcome::kExecuted;
  return report;
}

// ---------------------------------------------------------------------------
// Compatibility shim and batch front ends
// ---------------------------------------------------------------------------

CheckReport UFilter::Check(const std::string& update_text,
                           const CheckOptions& options,
                           relational::ExecutionContext* ctx) {
  double t0 = Now();
  bool hit = false;
  std::shared_ptr<const PreparedUpdate> plan;
  if (options.use_plan_cache) {
    plan = Prepare(update_text, &hit, ctx);
  } else {
    plan = CompileUpdate(update_text, xq::NormalizeUpdateText(update_text),
                         options.run_star, ctx);
  }
  double prepare_seconds = Now() - t0;
  CheckReport report = Execute(*plan, options, ctx);
  report.prepare_seconds = prepare_seconds;
  report.from_plan_cache = hit;
  if (!hit) {
    // This call actually compiled: attribute the compile cost to steps 1-2.
    report.step1_seconds += plan->compile_step1_seconds();
    if (options.run_star) {
      report.step2_seconds += plan->compile_step2_seconds();
    }
  }
  return report;
}

CheckReport UFilter::CheckParsed(const xq::UpdateStmt& stmt,
                                 const CheckOptions& options,
                                 relational::ExecutionContext* ctx) {
  if (ctx == nullptr) ctx = db_->root_context();
  std::vector<PreparedAction> actions;
  double step1_seconds = 0;
  double step2_seconds = 0;
  CompileActions(stmt, options.run_star, &actions, &step1_seconds,
                 &step2_seconds, ctx);
  CheckReport report = ExecuteActions(actions, options, ctx);
  report.step1_seconds += step1_seconds;
  if (options.run_star) report.step2_seconds += step2_seconds;
  return report;
}

std::vector<CheckReport> UFilter::CheckBatch(
    const std::vector<std::string>& updates, const CheckOptions& options,
    relational::ExecutionContext* ctx) {
  if (ctx == nullptr) ctx = db_->root_context();
  const size_t n = updates.size();
  std::vector<CheckReport> reports(n);

  // Phase 1: prepare every update (through the plan cache).
  std::vector<std::shared_ptr<const PreparedUpdate>> plans(n);
  std::vector<char> hits(n, 0);
  std::vector<double> prepare_seconds(n, 0);
  for (size_t i = 0; i < n; ++i) {
    double t0 = Now();
    if (options.use_plan_cache) {
      bool hit = false;
      plans[i] = Prepare(updates[i], &hit, ctx);
      hits[i] = hit ? 1 : 0;
    } else {
      plans[i] = CompileUpdate(updates[i], xq::NormalizeUpdateText(updates[i]),
                               options.run_star, ctx);
    }
    prepare_seconds[i] = Now() - t0;
  }

  // Phase 2: classify. Updates that reach step 3 with a single action get
  // their anchor/victim probes composed (schema work only — no queries yet);
  // everything else resolves immediately or falls back to Execute.
  enum class Mode { kDone, kFallback, kPending };
  struct Pending {
    size_t index = 0;
    const PreparedAction* action = nullptr;
    bool merge_anchor = false;
    relational::SelectQuery anchor_query;
    bool merge_victim = false;
    relational::SelectQuery victim_query;
    InjectedProbes probes;
  };
  std::vector<Mode> modes(n, Mode::kDone);
  std::vector<Pending> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const PreparedUpdate& plan = *plans[i];
    if (!plan.parsed()) {
      reports[i].outcome = CheckOutcome::kInvalid;
      reports[i].error = plan.parse_error();
      continue;
    }
    if (plan.actions().size() != 1) {
      // Multi-action blocks keep the atomic savepoint protocol unbatched.
      modes[i] = Mode::kFallback;
      continue;
    }
    const PreparedAction& action = plan.actions()[0];
    if (!ReachesStep3(action, options)) {
      reports[i] = ExecuteAction(action, options, ctx);
      continue;
    }
    // The probe queries were composed (and physically compiled) at Prepare
    // time; an absent slot means composition failed there, and the
    // unbatched path will surface the same error.
    Pending p;
    p.index = i;
    p.action = &action;
    if (!action.probes.anchor.present) {
      modes[i] = Mode::kFallback;
      continue;
    }
    p.merge_anchor = !action.probes.anchor.query.tables.empty();
    if (p.merge_anchor) p.anchor_query = action.probes.anchor.query;
    if (action.bound.op == xq::UpdateOpType::kDelete ||
        action.bound.op == xq::UpdateOpType::kReplace) {
      if (!action.probes.victim.present) {
        modes[i] = Mode::kFallback;
        continue;
      }
      p.merge_victim = true;
      p.victim_query = action.probes.victim.query;
    }
    modes[i] = Mode::kPending;
    pending.push_back(std::move(p));
  }

  // Phase 3: group probes sharing a base shape (selects + tables + joins —
  // i.e. the same target relation chain) and issue one merged
  // OR-of-predicates query per group, demultiplexing rows per update.
  auto ShapeKey = [](const relational::SelectQuery& q) {
    std::string key;
    for (const relational::ColRef& s : q.selects) key += s.ToString() + ",";
    key += "#";
    for (const auto& t : q.tables) key += t.table + " " + t.alias + ",";
    key += "#";
    for (const relational::JoinPredicate& j : q.joins) {
      key += j.a.ToString() + CompareOpSymbol(j.op) + j.b.ToString() + ",";
    }
    return key;
  };
  struct Group {
    relational::SelectQuery base;  // group shape, filters cleared
    std::vector<std::vector<relational::FilterPredicate>> branches;
    std::vector<std::pair<Pending*, bool /*is_victim*/>> members;
  };
  std::map<std::string, Group> groups;
  auto AddMember = [&](Pending* p, const relational::SelectQuery& query,
                       bool is_victim) {
    std::string key = (is_victim ? "victim:" : "anchor:") + ShapeKey(query);
    Group& group = groups[key];
    if (group.members.empty()) {
      group.base = query;
      group.base.filters.clear();
    }
    group.branches.push_back(query.filters);
    group.members.push_back({p, is_victim});
  };
  for (Pending& p : pending) {
    if (p.merge_anchor) AddMember(&p, p.anchor_query, false);
    if (p.merge_victim) AddMember(&p, p.victim_query, true);
  }
  relational::QueryEvaluator evaluator(db_, ctx);
  for (auto& [key, group] : groups) {
    relational::DisjunctiveQuery dq;
    dq.base = group.base;
    dq.branches = group.branches;
    auto merged = evaluator.ExecuteDisjunctive(dq);
    if (!merged.ok()) {
      // Engine-level failure: let each member re-probe individually.
      for (auto& [p, is_victim] : group.members) {
        modes[p->index] = Mode::kFallback;
      }
      continue;
    }
    std::string sql = dq.ToSql();
    for (size_t b = 0; b < group.members.size(); ++b) {
      auto& [p, is_victim] = group.members[b];
      if (modes[p->index] != Mode::kPending) continue;
      if (is_victim) {
        p->probes.has_victim = true;
        p->probes.victim_query = p->victim_query;
        p->probes.victims = merged->Extract(b);
        p->probes.victim_sql = sql;
      } else {
        p->probes.has_anchor = true;
        p->probes.anchor_query = p->anchor_query;
        p->probes.anchors = merged->Extract(b);
        p->probes.anchor_sql = sql;
      }
    }
  }

  // Phase 4: execute every update in batch order against the demultiplexed
  // probe rows (pending) or through the unbatched path (fallback).
  std::vector<Pending*> pending_by_index(n, nullptr);
  for (Pending& p : pending) pending_by_index[p.index] = &p;
  for (size_t i = 0; i < n; ++i) {
    switch (modes[i]) {
      case Mode::kDone:
        break;
      case Mode::kFallback:
        reports[i] = Execute(*plans[i], options, ctx);
        break;
      case Mode::kPending: {
        Pending* p = pending_by_index[i];
        reports[i] = ExecuteAction(*p->action, options, ctx, &p->probes);
        break;
      }
    }
    reports[i].prepare_seconds = prepare_seconds[i];
    reports[i].from_plan_cache = hits[i] != 0;
    if (hits[i] == 0) {
      reports[i].step1_seconds += plans[i]->compile_step1_seconds();
      if (options.run_star) {
        reports[i].step2_seconds += plans[i]->compile_step2_seconds();
      }
    }
  }
  return reports;
}

Result<xml::NodePtr> UFilter::MaterializeView() {
  view::Materializer materializer(db_);
  return materializer.Materialize(*view_);
}

}  // namespace ufilter::check
