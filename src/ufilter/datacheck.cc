#include "ufilter/datacheck.h"

#include "relational/dryrun.h"

namespace ufilter::check {

using relational::ColumnPredicate;
using relational::QueryEvaluator;
using relational::QueryResult;
using relational::RowId;
using relational::SelectQuery;
using relational::Table;
using relational::UpdateOp;
using relational::UpdateOpKind;

const char* DataCheckStrategyName(DataCheckStrategy s) {
  switch (s) {
    case DataCheckStrategy::kInternal:
      return "internal";
    case DataCheckStrategy::kHybrid:
      return "hybrid";
    case DataCheckStrategy::kOutside:
      return "outside";
  }
  return "?";
}

namespace {

/// Runs a probe, replaying a compiled plan when one is attached.
Result<QueryResult> RunProbe(relational::Database* db,
                             relational::ExecutionContext* ctx,
                             const SelectQuery& query,
                             const std::shared_ptr<
                                 const relational::PhysicalPlan>& plan) {
  QueryEvaluator evaluator(db, ctx);
  if (plan != nullptr) {
    UFILTER_ASSIGN_OR_RETURN(relational::DisjunctiveResult merged,
                             evaluator.ExecutePlan(*plan));
    return std::move(merged.merged);
  }
  return evaluator.Execute(query);
}

}  // namespace

Result<QueryResult> DataChecker::CheckContext(const BoundUpdate& update,
                                              SelectQuery* query_out,
                                              DataCheckReport* report,
                                              const InjectedProbes* injected,
                                              const CompiledProbeSet* compiled) {
  if (injected != nullptr && injected->has_anchor) {
    *query_out = injected->anchor_query;
    report->probes.push_back(injected->anchor_sql);
    if (injected->anchors.empty()) {
      return Status::DataConflict(
          "update context <" + update.context->tag +
          "> matches nothing in the view (probe returned no rows)");
    }
    return injected->anchors;
  }
  SelectQuery query;
  std::string sql;
  std::shared_ptr<const relational::PhysicalPlan> plan;
  if (compiled != nullptr && compiled->anchor.present) {
    query = compiled->anchor.query;
    sql = compiled->anchor.sql;
    plan = compiled->anchor.plan;
  } else {
    UFILTER_ASSIGN_OR_RETURN(query, translator_.ComposeAnchorProbe(update));
    sql = query.ToSql();
  }
  *query_out = query;
  if (query.tables.empty()) {
    // Root-anchored update: the context trivially exists.
    return QueryResult{};
  }
  report->probes.push_back(sql);
  UFILTER_ASSIGN_OR_RETURN(QueryResult result, RunProbe(db_, ctx_, query, plan));
  if (result.empty()) {
    return Status::DataConflict(
        "update context <" + update.context->tag +
        "> matches nothing in the view (probe returned no rows)");
  }
  return result;
}

Result<QueryResult> DataChecker::FetchVictims(const BoundUpdate& update,
                                              SelectQuery* query_out,
                                              DataCheckReport* report,
                                              const InjectedProbes* injected,
                                              const CompiledProbeSet* compiled) {
  if (injected != nullptr && injected->has_victim) {
    *query_out = injected->victim_query;
    report->probes.push_back(injected->victim_sql);
    return injected->victims;
  }
  SelectQuery query;
  std::string sql;
  std::shared_ptr<const relational::PhysicalPlan> plan;
  if (compiled != nullptr && compiled->victim.present) {
    query = compiled->victim.query;
    sql = compiled->victim.sql;
    plan = compiled->victim.plan;
  } else {
    UFILTER_ASSIGN_OR_RETURN(query, translator_.ComposeVictimProbe(update));
    sql = query.ToSql();
  }
  *query_out = query;
  report->probes.push_back(sql);
  return RunProbe(db_, ctx_, query, plan);
}

Status DataChecker::RunWideProbe(const BoundUpdate& update,
                                 DataCheckReport* report,
                                 const CompiledProbeSet* compiled) {
  SelectQuery query;
  std::string sql;
  std::shared_ptr<const relational::PhysicalPlan> plan;
  if (compiled != nullptr && compiled->wide.present) {
    query = compiled->wide.query;
    sql = compiled->wide.sql;
    plan = compiled->wide.plan;
  } else {
    UFILTER_ASSIGN_OR_RETURN(query, translator_.ComposeWideProbe(update));
    sql = query.ToSql();
  }
  report->probes.push_back(sql);
  UFILTER_ASSIGN_OR_RETURN(QueryResult result, RunProbe(db_, ctx_, query, plan));
  (void)result;
  return Status::OK();
}

Status DataChecker::ExecuteOps(const std::vector<UpdateOp>& ops,
                               DataCheckReport* report) {
  if (mode_ == ApplyMode::kReadOnly) {
    relational::DryRunOutcome outcome =
        relational::DryRunOps(*db_, ctx_, ops);
    if (!outcome.decided) {
      report->undecided = true;
      return Status::OK();
    }
    if (!outcome.failure.ok()) return outcome.failure;
    report->rows_affected += outcome.rows_affected;
    return Status::OK();
  }
  for (const UpdateOp& op : ops) {
    switch (op.kind) {
      case UpdateOpKind::kInsert: {
        auto result = db_->InsertValues(ctx_, op.table, op.values);
        if (!result.ok()) return result.status();
        report->rows_affected += 1;
        break;
      }
      case UpdateOpKind::kDelete: {
        auto result = db_->DeleteWhere(ctx_, op.table, op.where);
        if (!result.ok()) return result.status();
        report->rows_affected += result->deleted_rows;
        break;
      }
      case UpdateOpKind::kUpdate: {
        auto result = db_->UpdateWhere(ctx_, op.table, op.values, op.where);
        if (!result.ok()) return result.status();
        report->rows_affected += *result;
        break;
      }
    }
  }
  return Status::OK();
}

Status DataChecker::ProbeInsertConflicts(const std::vector<UpdateOp>& ops,
                                         DataCheckReport* report) {
  for (const UpdateOp& op : ops) {
    if (op.kind != UpdateOpKind::kInsert) continue;
    UFILTER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ctx_, op.table));
    const relational::TableSchema& schema = table->schema();
    if (schema.primary_key().empty()) continue;
    std::vector<ColumnPredicate> preds;
    bool full_key = true;
    for (const std::string& pk : schema.primary_key()) {
      auto it = op.values.find(pk);
      if (it == op.values.end() || it->second.is_null()) {
        full_key = false;
        break;
      }
      preds.push_back({pk, CompareOp::kEq, it->second});
    }
    if (!full_key) continue;
    SelectQuery probe;
    probe.tables.push_back({op.table, op.table});
    for (const ColumnPredicate& p : preds) {
      probe.filters.push_back(
          {relational::ColRef{op.table, p.column}, p.op, p.literal});
      probe.selects.push_back(relational::ColRef{op.table, p.column});
    }
    report->probes.push_back(probe.ToSql());
    if (!table->Find(preds, &db_->counters()).empty()) {
      return Status::DataConflict("data conflict: key already exists in '" +
                                  op.table + "' (outside-strategy probe)");
    }
  }
  return Status::OK();
}

Result<DataCheckReport> DataChecker::RunDelete(const BoundUpdate& update,
                                               const StarVerdict& verdict,
                                               DataCheckStrategy strategy,
                                               const InjectedProbes* injected,
                                               const CompiledProbeSet* compiled) {
  DataCheckReport report;
  SelectQuery anchor_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult anchors,
      CheckContext(update, &anchor_query, &report, injected, compiled));
  (void)anchors;

  SelectQuery victim_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult victims,
      FetchVictims(update, &victim_query, &report, injected, compiled));
  if (strategy == DataCheckStrategy::kInternal) {
    // The internal strategy would delete through the flat relational view:
    // fetch the full-width tuples first.
    UFILTER_RETURN_NOT_OK(RunWideProbe(update, &report, compiled));
  }
  if (victims.empty()) {
    // The paper's u12: the relational engine would answer "zero tuples
    // deleted"; the outside strategy detects it before issuing any delete.
    report.passed = true;
    report.zero_tuple_warning = true;
    return report;
  }
  bool minimize = verdict.condition.find("minimization") != std::string::npos;
  UFILTER_ASSIGN_OR_RETURN(
      report.translation,
      translator_.TranslateDelete(update, victim_query, victims, minimize));
  Status exec = ExecuteOps(report.translation, &report);
  if (!exec.ok()) {
    report.failure = exec;
    return report;
  }
  report.passed = true;
  return report;
}

Result<DataCheckReport> DataChecker::RunInsert(const BoundUpdate& update,
                                               const StarVerdict& verdict,
                                               DataCheckStrategy strategy,
                                               const InjectedProbes* injected,
                                               const CompiledProbeSet* compiled) {
  DataCheckReport report;
  SelectQuery anchor_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult anchors,
      CheckContext(update, &anchor_query, &report, injected, compiled));

  if (strategy == DataCheckStrategy::kInternal) {
    // Build the complete relational-view tuple: wide probe over the chain
    // (this is the extra cost Fig. 15 shows).
    UFILTER_RETURN_NOT_OK(RunWideProbe(update, &report, compiled));
  }

  UFILTER_ASSIGN_OR_RETURN(
      report.translation,
      translator_.TranslateInsert(update, anchor_query, anchors));

  // Condition analysis (Fig. 5). The consistency pass runs for every
  // insert: it rejects key conflicts on the element's own relation (the
  // update-point check of 6.2) and, when the STAR condition demands
  // duplication consistency, turns consistent secondary duplicates into
  // tuple reuse.
  {
    Status st =
        translator_.EnforceDuplicationConsistency(update, &report.translation);
    if (!st.ok()) {
      report.failure = st;
      return report;
    }
  }
  (void)verdict;
  if (strategy == DataCheckStrategy::kOutside) {
    Status st = ProbeInsertConflicts(report.translation, &report);
    if (!st.ok()) {
      report.failure = st;
      return report;
    }
  }
  Status exec = ExecuteOps(report.translation, &report);
  if (!exec.ok()) {
    // Hybrid/internal path: the engine detected the conflict.
    report.failure = Status::DataConflict(exec.message());
    return report;
  }
  report.passed = true;
  return report;
}

Result<DataCheckReport> DataChecker::RunReplace(
    const BoundUpdate& update, const StarVerdict& verdict,
    // Replace rewrites one bound leaf in place, so the probe and the
    // translation coincide for every strategy: there is no wide tuple to
    // assemble (internal) and no conflict set to pre-probe (outside).
    DataCheckStrategy /*strategy*/, const InjectedProbes* injected,
    const CompiledProbeSet* compiled) {
  DataCheckReport report;
  SelectQuery anchor_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult anchors,
      CheckContext(update, &anchor_query, &report, injected, compiled));

  const asg::ViewNode& target = gv_->node(update.target_node);
  SelectQuery victim_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult victims,
      FetchVictims(update, &victim_query, &report, injected, compiled));
  if (victims.empty()) {
    report.passed = true;
    report.zero_tuple_warning = true;
    return report;
  }

  if (target.kind == asg::NodeKind::kLeaf ||
      target.kind == asg::NodeKind::kTag) {
    // Value replacement: UPDATE ... SET attr = new value.
    const asg::ViewNode& leaf = target.kind == asg::NodeKind::kLeaf
                                    ? target
                                    : gv_->node(target.children[0]);
    UFILTER_ASSIGN_OR_RETURN(
        Value v,
        Value::FromText(update.payload->TextContent(), leaf.type));
    std::map<std::string, size_t> alias_pos;
    for (size_t i = 0; i < victim_query.tables.size(); ++i) {
      alias_pos[victim_query.tables[i].alias] = i;
    }
    auto pos = alias_pos.find(leaf.variable);
    if (pos == alias_pos.end()) {
      return Status::Internal("replace target variable missing from probe");
    }
    UFILTER_ASSIGN_OR_RETURN(Table * table,
                             db_->GetTable(ctx_, leaf.relation));
    for (const auto& ids : victims.row_ids) {
      const relational::Row* row = table->GetRow(ids[pos->second]);
      if (row == nullptr) continue;
      UpdateOp op;
      op.kind = UpdateOpKind::kUpdate;
      op.table = leaf.relation;
      op.values[leaf.attr] = v;
      for (const std::string& pk : table->schema().primary_key()) {
        int c = table->schema().ColumnIndex(pk);
        op.where.push_back(
            {pk, CompareOp::kEq, (*row)[static_cast<size_t>(c)]});
      }
      report.translation.push_back(std::move(op));
    }
  } else {
    // Element replacement = delete victim + insert payload.
    bool minimize =
        verdict.condition.find("minimization") != std::string::npos;
    UFILTER_ASSIGN_OR_RETURN(
        std::vector<UpdateOp> delete_ops,
        translator_.TranslateDelete(update, victim_query, victims, minimize));
    // The replacement is inserted once per *victim* (whose probe rows carry
    // the full context chain), not per context anchor: a WHERE on the
    // victim's own scope must not fan the insert out to sibling contexts.
    UFILTER_ASSIGN_OR_RETURN(
        std::vector<UpdateOp> insert_ops,
        translator_.TranslateInsert(update, victim_query, victims));
    report.translation = std::move(delete_ops);
    for (UpdateOp& op : insert_ops) report.translation.push_back(std::move(op));
    if (verdict.condition.find("duplication consistency") !=
        std::string::npos) {
      Status st = translator_.EnforceDuplicationConsistency(
          update, &report.translation);
      if (!st.ok()) {
        report.failure = st;
        return report;
      }
    }
  }

  Status exec = ExecuteOps(report.translation, &report);
  if (!exec.ok()) {
    report.failure = Status::DataConflict(exec.message());
    return report;
  }
  report.passed = true;
  return report;
}

Result<DataCheckReport> DataChecker::CheckAndExecute(
    const BoundUpdate& update, const StarVerdict& verdict,
    DataCheckStrategy strategy, ApplyMode mode,
    const InjectedProbes* injected, const CompiledProbeSet* compiled) {
  mode_ = mode;
  // Read-only mode touches no data, so there is nothing to roll back (and
  // taking a savepoint would race with concurrent readers' contexts).
  const bool read_only = mode == ApplyMode::kReadOnly;
  size_t savepoint = read_only ? 0 : ctx_->Begin();
  Result<DataCheckReport> result = [&]() -> Result<DataCheckReport> {
    switch (update.op) {
      case xq::UpdateOpType::kDelete:
        return RunDelete(update, verdict, strategy, injected, compiled);
      case xq::UpdateOpType::kInsert:
        return RunInsert(update, verdict, strategy, injected, compiled);
      case xq::UpdateOpType::kReplace:
        return RunReplace(update, verdict, strategy, injected, compiled);
    }
    return Status::Internal("unknown update op");
  }();
  if (!result.ok()) {
    if (!read_only) ctx_->Rollback(savepoint);
    // Context-check rejections surface as a failed report, not an error.
    if (result.status().IsDataConflict()) {
      DataCheckReport report;
      report.failure = result.status();
      return report;
    }
    return result.status();
  }
  if (read_only) return result;
  if (!result->passed || mode != ApplyMode::kApply) {
    ctx_->Rollback(savepoint);
  } else {
    ctx_->Commit(savepoint);
  }
  return result;
}

}  // namespace ufilter::check
