#include "ufilter/checker.h"

#include <chrono>
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

/// Calls `f(slot, lexical class, literal operand or payload text node)` for
/// every literal of `stmt`, in parameter-slot order.
template <typename F>
void ForEachLiteral(xq::UpdateStmt* stmt, F f) {
  for (xq::Condition& cond : stmt->conditions) {
    for (xq::Operand* op : {&cond.lhs, &cond.rhs}) {
      if (op->is_path()) continue;
      f(op->param,
        op->literal.is_int()      ? xq::LiteralClass::kInteger
        : op->literal.is_double() ? xq::LiteralClass::kDecimal
                                  : xq::LiteralClass::kString,
        &op->literal, nullptr);
    }
  }
  for (xq::UpdateAction& action : stmt->actions) {
    if (action.payload == nullptr) continue;
    int slot = action.payload_param;
    std::vector<xml::Node*> stack = {action.payload.get()};
    while (!stack.empty()) {
      xml::Node* node = stack.back();
      stack.pop_back();
      if (node->is_text()) {
        f(slot++, xq::LiteralClass::kText, nullptr, node);
        continue;
      }
      const auto& children = node->children();
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(it->get());
      }
    }
  }
}

/// A copy of the shape payload `node` whose text nodes take the request's
/// values, slot by slot in document order.
xml::NodePtr BindPayload(const xml::Node& node,
                         const std::vector<Value>& params, int* slot) {
  if (node.is_text()) {
    return xml::Node::Text(params[static_cast<size_t>((*slot)++)].AsString());
  }
  xml::NodePtr out = xml::Node::Element(node.label());
  for (const xml::NodePtr& child : node.children()) {
    out->AddChild(BindPayload(*child, params, slot));
  }
  return out;
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

std::shared_ptr<CompiledShape> UFilter::CompileShape(
    std::unique_ptr<xq::UpdateStmt> stmt, bool compute_star,
    relational::ExecutionContext* ctx) {
  auto shape = std::make_shared<CompiledShape>();
  shape->stmt_ = std::move(stmt);
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
    out->sql = out->query.ToSqlTemplate();
    if (out->query.tables.empty()) return;  // trivial probe, nothing to plan
    auto plan = planner.Compile(out->query);
    if (plan.ok()) {
      out->plan = std::make_shared<const relational::PhysicalPlan>(
          std::move(*plan));
    }
  };
  for (const xq::UpdateAction& action : shape->stmt_->actions) {
    ShapeAction sa;
    sa.payload_param = action.payload_param;

    // ---- Step 1, the part that reads no value: binding -------------------
    double t0 = Now();
    auto bound = BindUpdateAction(*view_, *gv_, *shape->stmt_, action);
    shape->step1_seconds_ += Now() - t0;
    if (!bound.ok()) {
      sa.bind_error = bound.status();
      shape->actions_.push_back(std::move(sa));
      continue;
    }
    sa.bound = std::move(*bound);
    sa.bound_ok = true;

    // ---- Step 2: schema-driven translatability reasoning (STAR) ---------
    if (compute_star) {
      t0 = Now();
      sa.star = CheckStar(*gv_, sa.bound.target_node, sa.bound.op);
      sa.star_computed = true;
      db_->counters().star_checks->Inc();
      shape->step2_seconds_ += Now() - t0;
    }

    // ---- Physical probe plans (replayed by step 3, zero name lookups) ----
    // Composed even for STAR-untranslatable actions: a run_star=false
    // execution of this plan still reaches step 3.
    compile_probe(translator.ComposeAnchorProbe(sa.bound), &sa.probes.anchor);
    if (sa.bound.op == xq::UpdateOpType::kDelete ||
        sa.bound.op == xq::UpdateOpType::kReplace) {
      compile_probe(translator.ComposeVictimProbe(sa.bound),
                    &sa.probes.victim);
    }
    if (sa.bound.op == xq::UpdateOpType::kDelete ||
        sa.bound.op == xq::UpdateOpType::kInsert) {
      compile_probe(translator.ComposeWideProbe(sa.bound), &sa.probes.wide);
    }
    shape->actions_.push_back(std::move(sa));
  }
  return shape;
}

std::shared_ptr<PreparedUpdate> UFilter::Bind(
    std::shared_ptr<const CompiledShape> shape, std::vector<Value> params,
    std::string normalized) {
  auto plan = std::shared_ptr<PreparedUpdate>(new PreparedUpdate());
  plan->normalized_text_ = std::move(normalized);
  plan->owner_ = this;
  plan->view_signature_ = view_signature_;
  plan->params_ = std::move(params);
  plan->shape_ = std::move(shape);
  const std::vector<ShapeAction>& actions = plan->shape_->actions();
  plan->actions_.reserve(actions.size());
  double t0 = Now();
  for (const ShapeAction& sa : actions) {
    PreparedAction& pa = plan->actions_.emplace_back();
    pa.shape = &sa;
    if (!sa.bound_ok) {
      pa.step1_error = sa.bind_error;
      continue;
    }
    pa.bound = sa.bound;
    for (BoundPredicate& pred : pa.bound.predicates) {
      pred.literal = plan->params_[static_cast<size_t>(pred.param)];
    }
    if (sa.bound.payload != nullptr) {
      int slot = sa.payload_param;
      plan->payloads_.push_back(
          BindPayload(*sa.bound.payload, plan->params_, &slot));
      pa.bound.payload = plan->payloads_.back().get();
    }
    // ---- Step 1, the part that reads values: validation ------------------
    Status valid = ValidateUpdate(*gv_, pa.bound);
    if (!valid.ok()) {
      pa.step1_error = std::move(valid);
      continue;
    }
    pa.bound_ok = true;
  }
  plan->step1_seconds_ = Now() - t0;
  return plan;
}

std::shared_ptr<const PreparedUpdate> UFilter::CompileUpdate(
    const std::string& text, const xq::LiftedUpdate* lifted,
    bool compute_star, relational::ExecutionContext* ctx) {
  std::string normalized =
      lifted != nullptr ? lifted->shape : xq::NormalizeUpdateText(text);
  double t0 = Now();
  auto parsed = xq::ParseUpdate(text);
  double parse_seconds = Now() - t0;
  if (!parsed.ok()) {
    auto plan = std::shared_ptr<PreparedUpdate>(new PreparedUpdate());
    plan->normalized_text_ = std::move(normalized);
    plan->owner_ = this;
    plan->view_signature_ = view_signature_;
    plan->parse_error_ = parsed.status();
    plan->step1_seconds_ = parse_seconds;
    return plan;
  }
  auto stmt = std::make_unique<xq::UpdateStmt>(std::move(*parsed));
  // The text's own values, and whether its literals line up with the
  // lifted ones slot for slot (then the shape is what every text of this
  // shape compiles to).
  std::vector<Value> params;
  bool shareable = lifted != nullptr;
  ForEachLiteral(stmt.get(), [&](int slot, xq::LiteralClass cls,
                                 Value* literal, xml::Node* text_node) {
    size_t i = static_cast<size_t>(slot);
    if (params.size() <= i) params.resize(i + 1);
    params[i] = literal != nullptr ? *literal
                                   : Value::String(text_node->label());
    shareable = shareable && i < lifted->literals.size() &&
                lifted->literals[i].cls == cls;
  });
  shareable = shareable && params.size() == lifted->literals.size();
  for (const xq::Condition& cond : stmt->conditions) {
    // Rejected at binding with an error quoting both literals.
    if (!cond.lhs.is_path() && !cond.rhs.is_path()) shareable = false;
  }
  if (shareable) {
    // A shared shape holds no request's values: its compile cannot read
    // one, and a later request cannot see one.
    ForEachLiteral(stmt.get(), [](int, xq::LiteralClass, Value* literal,
                                  xml::Node* text_node) {
      if (literal != nullptr) *literal = Value::Null();
      if (text_node != nullptr) text_node->set_label("");
    });
  }
  std::shared_ptr<CompiledShape> shape =
      CompileShape(std::move(stmt), compute_star, ctx);
  shape->step1_seconds_ += parse_seconds;
  if (shareable) plan_cache_.Insert(lifted->shape, shape);
  std::shared_ptr<PreparedUpdate> plan =
      Bind(shape, std::move(params), std::move(normalized));
  plan->step1_seconds_ += shape->step1_seconds_;
  plan->step2_seconds_ = shape->step2_seconds_;
  return plan;
}

std::shared_ptr<const PreparedUpdate> UFilter::Prepare(
    const std::string& update_text, bool* cache_hit,
    relational::ExecutionContext* ctx, obs::TraceContext* trace) {
  xq::LiftedUpdate lifted;
  bool lifted_ok = false;
  {
    obs::ScopedSpan span(trace, obs::Stage::kPlanCache);
    lifted_ok = xq::LiftUpdate(update_text, &lifted).ok();
    std::shared_ptr<const CompiledShape> shape =
        lifted_ok ? plan_cache_.Lookup(lifted.shape) : nullptr;
    if (shape != nullptr) {
      std::vector<Value> params;
      params.reserve(lifted.literals.size());
      bool values_ok = true;
      for (const xq::Literal& lit : lifted.literals) {
        Result<Value> value = xq::LiteralValue(lit.cls, lit.text);
        if (!value.ok()) {
          values_ok = false;  // the parser rejects it: compiled below
          break;
        }
        params.push_back(std::move(*value));
      }
      if (values_ok) {
        if (cache_hit != nullptr) *cache_hit = true;
        return Bind(std::move(shape), std::move(params),
                    std::move(lifted.shape));
      }
      lifted_ok = false;
    }
  }
  if (cache_hit != nullptr) *cache_hit = false;
  // Cached shapes always carry STAR: a later Execute with run_star=true
  // must be able to consume them.
  obs::ScopedSpan span(trace, obs::Stage::kCompile);
  return CompileUpdate(update_text, lifted_ok ? &lifted : nullptr,
                       /*compute_star=*/true, ctx);
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
  return ExecuteActions(prepared, options, ctx);
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
    return ExecuteActions(prepared, options, ctx);
  }
  // The multi-action protocol checks each action against the state left by
  // the previous ones (inside a savepoint): a later action's probes must see
  // earlier writes, and queries never read the dry-run overlay.
  if (actions.size() > 1) return std::nullopt;
  const PreparedAction& action = actions[0];
  // Only the outside strategy checks before executing; hybrid/internal rely
  // on engine execution to surface conflicts and keep executing for real,
  // in the writer lane. The test mirrors ExecuteAction's gates: only an
  // action that reaches step 3 touches data.
  const bool reaches_step3 =
      action.bound_ok && options.run_data_check &&
      !(options.run_star && action.star_computed() &&
        action.shape->star.result == Translatability::kUntranslatable);
  if (reaches_step3 && options.strategy != DataCheckStrategy::kOutside) {
    return std::nullopt;
  }
  return ExecuteAction(action, prepared.params(), options, ctx,
                       /*read_only=*/true);
}

CheckReport UFilter::ExecuteActions(const PreparedUpdate& prepared,
                                    const CheckOptions& options,
                                    relational::ExecutionContext* ctx) {
  const std::vector<PreparedAction>& actions = prepared.actions();
  if (actions.empty()) {
    CheckReport report;
    report.outcome = CheckOutcome::kInvalid;
    report.error = Status::InvalidUpdate("update statement has no action");
    return report;
  }
  if (actions.size() == 1) {
    return ExecuteAction(actions[0], prepared.params(), options, ctx);
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
    CheckReport r = ExecuteAction(action, prepared.params(), per_action, ctx);
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
                                   const std::vector<Value>& params,
                                   const CheckOptions& options,
                                   relational::ExecutionContext* ctx,
                                   bool read_only) {
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
    if (action.star_computed()) {
      verdict = action.shape->star;
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
  ApplyMode mode = read_only       ? ApplyMode::kReadOnly
                   : options.apply ? ApplyMode::kApply
                                   : ApplyMode::kDryRun;
  auto data = checker.CheckAndExecute(action.bound, verdict, options.strategy,
                                      mode, &action.shape->probes, &params);
  report.step3_seconds = Now() - t0;
  if (!data.ok()) {
    report.outcome = CheckOutcome::kDataConflict;
    report.error = data.status();
    return report;
  }
  report.translation = std::move(data->translation);
  report.rows_affected = data->rows_affected;
  report.zero_tuple_warning = data->zero_tuple_warning;
  report.probes = std::move(data->probes);
  if (!data->passed) {
    report.outcome = CheckOutcome::kDataConflict;
    report.error = data->failure;
    return report;
  }
  report.outcome = CheckOutcome::kExecuted;
  return report;
}

// ---------------------------------------------------------------------------
// Compatibility shim
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
    plan = CompileUpdate(update_text, nullptr, options.run_star, ctx);
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

Result<xml::NodePtr> UFilter::MaterializeView() {
  view::Materializer materializer(db_);
  return materializer.Materialize(*view_);
}

}  // namespace ufilter::check
