#include "ufilter/datacheck.h"

#include "relational/dryrun.h"

namespace ufilter::check {

using relational::ColumnPredicate;
using relational::QueryEvaluator;
using relational::QueryResult;
using relational::RowId;
using relational::SelectQuery;
using relational::TableStore;
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

template <typename Compose>
Result<const relational::PhysicalPlan*> DataChecker::BindProbe(
    const CompiledProbe* compiled, Compose compose, SelectQuery* query,
    std::string* sql) {
  if (compiled != nullptr && compiled->present) {
    *query = compiled->query.Bind(*params_);
    *sql = compiled->sql.Render(*params_);
    return compiled->plan.get();
  }
  UFILTER_ASSIGN_OR_RETURN(*query, compose());
  *sql = query->ToSql();
  return nullptr;
}

Result<bool> DataChecker::RunProbe(const SelectQuery& query,
                                   const relational::PhysicalPlan* plan,
                                   QueryResult* rows) {
  QueryEvaluator evaluator(db_, ctx_, stores_);
  if (rows == nullptr) {
    if (plan != nullptr) return evaluator.ExistsPlan(*plan, *params_);
    return evaluator.Exists(query);
  }
  if (plan != nullptr) {
    UFILTER_ASSIGN_OR_RETURN(*rows, evaluator.ExecutePlan(*plan, *params_));
  } else {
    UFILTER_ASSIGN_OR_RETURN(*rows, evaluator.Execute(query));
  }
  return !rows->empty();
}

Status DataChecker::CheckContext(const BoundUpdate& update, SelectQuery* query,
                                 DataCheckReport* report,
                                 const CompiledProbeSet* compiled,
                                 QueryResult* rows) {
  std::string sql;
  UFILTER_ASSIGN_OR_RETURN(
      const relational::PhysicalPlan* plan,
      BindProbe(compiled != nullptr ? &compiled->anchor : nullptr,
                [&] { return translator_.ComposeAnchorProbe(update); }, query,
                &sql));
  if (query->tables.empty()) {
    // Root-anchored update: the context trivially exists.
    return Status::OK();
  }
  report->probes.push_back(std::move(sql));
  UFILTER_ASSIGN_OR_RETURN(bool exists, RunProbe(*query, plan, rows));
  if (exists) return Status::OK();
  return Status::DataConflict(
      "update context <" + update.context->tag +
      "> matches nothing in the view (probe returned no rows)");
}

Result<QueryResult> DataChecker::FetchVictims(const BoundUpdate& update,
                                              SelectQuery* query,
                                              DataCheckReport* report,
                                              const CompiledProbeSet* compiled) {
  std::string sql;
  UFILTER_ASSIGN_OR_RETURN(
      const relational::PhysicalPlan* plan,
      BindProbe(compiled != nullptr ? &compiled->victim : nullptr,
                [&] { return translator_.ComposeVictimProbe(update); }, query,
                &sql));
  report->probes.push_back(std::move(sql));
  QueryResult victims;
  UFILTER_RETURN_NOT_OK(RunProbe(*query, plan, &victims).status());
  return victims;
}

Status DataChecker::RunWideProbe(const BoundUpdate& update,
                                 DataCheckReport* report,
                                 const CompiledProbeSet* compiled) {
  SelectQuery query;
  std::string sql;
  UFILTER_ASSIGN_OR_RETURN(
      const relational::PhysicalPlan* plan,
      BindProbe(compiled != nullptr ? &compiled->wide : nullptr,
                [&] { return translator_.ComposeWideProbe(update); }, &query,
                &sql));
  report->probes.push_back(std::move(sql));
  QueryResult result;
  return RunProbe(query, plan, &result).status();
}

Status DataChecker::ExecuteOps(const std::vector<UpdateOp>& ops,
                               DataCheckReport* report) {
  relational::DryRunOutcome outcome = relational::RunOps(*db_, *stores_, ops);
  report->rows_affected += outcome.rows_affected;
  return outcome.failure;
}

Status DataChecker::ProbeInsertConflicts(const std::vector<UpdateOp>& ops,
                                         DataCheckReport* report) {
  for (const UpdateOp& op : ops) {
    if (op.kind != UpdateOpKind::kInsert) continue;
    UFILTER_ASSIGN_OR_RETURN(const TableStore* table,
                             db_->ResolveStore(*stores_, op.table));
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
    if (!table->Find(preds).empty()) {
      return Status::DataConflict("data conflict: key already exists in '" +
                                  op.table + "' (outside-strategy probe)");
    }
  }
  return Status::OK();
}

Result<DataCheckReport> DataChecker::RunDelete(const BoundUpdate& update,
                                               const StarVerdict& verdict,
                                               DataCheckStrategy strategy,
                                               const CompiledProbeSet* compiled) {
  DataCheckReport report;
  SelectQuery anchor_query;
  UFILTER_RETURN_NOT_OK(CheckContext(update, &anchor_query, &report, compiled,
                                     /*rows=*/nullptr));

  SelectQuery victim_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult victims,
      FetchVictims(update, &victim_query, &report, compiled));
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
                                               const CompiledProbeSet* compiled) {
  DataCheckReport report;
  SelectQuery anchor_query;
  // One insert per context row (TranslateInsert): read them all.
  QueryResult anchors;
  UFILTER_RETURN_NOT_OK(
      CheckContext(update, &anchor_query, &report, compiled, &anchors));

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
    DataCheckStrategy /*strategy*/, const CompiledProbeSet* compiled) {
  DataCheckReport report;
  SelectQuery anchor_query;
  UFILTER_RETURN_NOT_OK(CheckContext(update, &anchor_query, &report, compiled,
                                     /*rows=*/nullptr));

  const asg::ViewNode& target = gv_->node(update.target_node);
  SelectQuery victim_query;
  UFILTER_ASSIGN_OR_RETURN(
      QueryResult victims,
      FetchVictims(update, &victim_query, &report, compiled));
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
    UFILTER_ASSIGN_OR_RETURN(const TableStore* table,
                             db_->ResolveStore(*stores_, leaf.relation));
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
    DataCheckStrategy strategy, const CompiledProbeSet* compiled,
    const std::vector<Value>* params) {
  params_ = params;
  Result<DataCheckReport> result = [&]() -> Result<DataCheckReport> {
    switch (update.op) {
      case xq::UpdateOpType::kDelete:
        return RunDelete(update, verdict, strategy, compiled);
      case xq::UpdateOpType::kInsert:
        return RunInsert(update, verdict, strategy, compiled);
      case xq::UpdateOpType::kReplace:
        return RunReplace(update, verdict, strategy, compiled);
    }
    return Status::Internal("unknown update op");
  }();
  if (!result.ok() && result.status().IsDataConflict()) {
    // Context-check rejections surface as a failed report, not an error.
    DataCheckReport report;
    report.failure = result.status();
    return report;
  }
  return result;
}

}  // namespace ufilter::check
