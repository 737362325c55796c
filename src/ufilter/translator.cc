#include "ufilter/translator.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common/strings.h"
#include "ufilter/star.h"

namespace ufilter::check {

using relational::ColRef;
using relational::ColumnPredicate;
using relational::FilterPredicate;
using relational::JoinPredicate;
using relational::QueryEvaluator;
using relational::QueryResult;
using relational::Row;
using relational::RowId;
using relational::SelectQuery;
using relational::Table;
using relational::TableSchema;
using relational::UpdateOp;
using relational::UpdateOpKind;
using view::AttrRef;
using view::AvNode;
using view::ResolvedCondition;
using view::Scope;

namespace {

/// (variable, relation) pairs of a scope chain, outermost first.
std::vector<std::pair<std::string, std::string>> ChainVars(
    const std::vector<const Scope*>& chain) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Scope* s : chain) {
    for (const auto& [var, rel] : s->vars) out.emplace_back(var, rel);
  }
  return out;
}

bool HasVar(const std::vector<std::pair<std::string, std::string>>& vars,
            const std::string& var) {
  for (const auto& [v, r] : vars) {
    (void)r;
    if (v == var) return true;
  }
  return false;
}

void AddSelect(SelectQuery* q, const std::string& alias,
               const std::string& column) {
  ColRef ref{alias, column};
  for (const ColRef& c : q->selects) {
    if (c == ref) return;
  }
  q->selects.push_back(ref);
}

}  // namespace

std::vector<const Scope*> Translator::ScopeChain(const AvNode* element) const {
  std::vector<const Scope*> chain;
  for (const Scope* s = element->scope; s != nullptr; s = s->parent) {
    chain.push_back(s);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

Result<SelectQuery> Translator::ComposeChainProbe(const BoundUpdate& update,
                                                  const AvNode* element,
                                                  bool wide,
                                                  bool skip_outside_preds) const {
  SelectQuery query;
  std::vector<const Scope*> chain = ScopeChain(element);
  auto vars = ChainVars(chain);
  for (const auto& [var, rel] : vars) {
    query.tables.push_back({rel, var});
  }

  // View predicates of every scope in the chain.
  for (const Scope* s : chain) {
    for (const ResolvedCondition& cond : s->conditions) {
      if (cond.is_correlation) {
        query.joins.push_back({ColRef{cond.lhs.variable, cond.lhs.attr},
                               cond.op,
                               ColRef{cond.rhs.variable, cond.rhs.attr}});
      } else {
        query.filters.push_back({ColRef{cond.lhs.variable, cond.lhs.attr},
                                 cond.op, cond.literal});
      }
    }
  }

  // The update's own WHERE conjuncts.
  for (const BoundPredicate& pred : update.predicates) {
    if (!HasVar(vars, pred.attr.variable)) {
      if (skip_outside_preds) continue;  // handled by the victim probe
      return Status::NotSupported("update predicate on $" +
                                  pred.attr.variable +
                                  " lies outside the probe's scope chain");
    }
    query.filters.push_back({ColRef{pred.attr.variable, pred.attr.attr},
                             pred.op, pred.literal, pred.param});
  }

  if (wide) {
    // Every view column sourced from a chain variable (internal strategy
    // must reconstruct the full relational-view tuple).
    std::vector<const AvNode*> stack = {&view_->root()};
    while (!stack.empty()) {
      const AvNode* n = stack.back();
      stack.pop_back();
      if (n->kind == AvNode::Kind::kSimple && HasVar(vars, n->variable)) {
        AddSelect(&query, n->variable, n->attr);
      }
      for (const auto& c : n->children) stack.push_back(c.get());
    }
  } else {
    // Key columns per chain variable.
    for (const auto& [var, rel] : vars) {
      UFILTER_ASSIGN_OR_RETURN(const TableSchema* table,
                               view_->schema().FindTable(rel));
      for (const std::string& pk : table->primary_key()) {
        AddSelect(&query, var, pk);
      }
    }
    // Columns referenced by chain conditions and by the target's edge
    // conditions (the translation needs them for FK filling).
    auto AddCondCols = [&](const ResolvedCondition& cond) {
      if (HasVar(vars, cond.lhs.variable)) {
        AddSelect(&query, cond.lhs.variable, cond.lhs.attr);
      }
      if (cond.is_correlation && HasVar(vars, cond.rhs.variable)) {
        AddSelect(&query, cond.rhs.variable, cond.rhs.attr);
      }
    };
    for (const Scope* s : chain) {
      for (const ResolvedCondition& cond : s->conditions) AddCondCols(cond);
    }
    if (update.target_node >= 0) {
      for (const ResolvedCondition& cond :
           gv_->node(update.target_node).edge_conditions) {
        AddCondCols(cond);
      }
    }
  }
  return query;
}

Result<SelectQuery> Translator::ComposeAnchorProbe(
    const BoundUpdate& update) const {
  if (update.op == xq::UpdateOpType::kInsert) {
    return ComposeChainProbe(update, update.context, /*wide=*/false,
                             /*skip_outside_preds=*/false);
  }
  // Delete/replace: the context to check is the victim's parent element;
  // predicates on the victim's own scope belong to the victim probe.
  const AvNode* anchor =
      update.target != nullptr ? update.target->ParentElement() : nullptr;
  if (anchor == nullptr) anchor = &view_->root();
  return ComposeChainProbe(update, anchor, /*wide=*/false,
                           /*skip_outside_preds=*/true);
}

Result<SelectQuery> Translator::ComposeVictimProbe(
    const BoundUpdate& update) const {
  return ComposeChainProbe(update, update.target, /*wide=*/false,
                           /*skip_outside_preds=*/false);
}

Result<SelectQuery> Translator::ComposeWideProbe(
    const BoundUpdate& update) const {
  const AvNode* element = update.op == xq::UpdateOpType::kInsert
                              ? update.context
                              : update.target;
  if (element == nullptr) element = &view_->root();
  return ComposeChainProbe(update, element, /*wide=*/true,
                           /*skip_outside_preds=*/true);
}

namespace {

/// Builds a PK predicate list for `row` of `table`.
std::vector<ColumnPredicate> KeyPredicates(const TableSchema& schema,
                                           const Row& row) {
  std::vector<ColumnPredicate> preds;
  for (const std::string& pk : schema.primary_key()) {
    int c = schema.ColumnIndex(pk);
    preds.push_back({pk, CompareOp::kEq, row[static_cast<size_t>(c)]});
  }
  return preds;
}

}  // namespace

Result<std::vector<UpdateOp>> Translator::TranslateDelete(
    const BoundUpdate& update, const SelectQuery& victim_query,
    const QueryResult& victims, bool minimize) {
  std::vector<UpdateOp> ops;
  const asg::ViewNode& target = gv_->node(update.target_node);

  // Alias -> position in the victim query's FROM list.
  std::map<std::string, size_t> alias_pos;
  for (size_t i = 0; i < victim_query.tables.size(); ++i) {
    alias_pos[victim_query.tables[i].alias] = i;
  }

  // Simple-element / text() deletion: SET the attribute NULL.
  if (target.kind == asg::NodeKind::kLeaf ||
      target.kind == asg::NodeKind::kTag) {
    auto pos = alias_pos.find(target.variable);
    if (pos == alias_pos.end()) {
      return Status::Internal("victim variable missing from probe");
    }
    UFILTER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ctx_, target.relation));
    std::set<RowId> seen;
    for (const auto& ids : victims.row_ids) {
      RowId id = ids[pos->second];
      if (!seen.insert(id).second) continue;
      const Row* row = table->GetRow(id);
      if (row == nullptr) continue;
      UpdateOp op;
      op.kind = UpdateOpKind::kUpdate;
      op.table = target.relation;
      op.values[target.attr] = Value::Null();
      op.where = KeyPredicates(table->schema(), *row);
      ops.push_back(std::move(op));
    }
    return ops;
  }

  if (target.kind == asg::NodeKind::kRoot) {
    return Status::NotSupported("deleting the view root is not translated");
  }

  // Complex element: delete the tuples of the element's current relations.
  std::vector<std::string> cr = gv_->CurrentRelations(update.target_node);
  const Scope* scope = update.target->scope;
  if (scope->vars.empty()) {
    return Status::Internal("victim scope has no bindings");
  }
  std::string primary_var = PrimaryVariable(*gv_, update.target_node);
  if (primary_var.empty()) primary_var = scope->vars[0].first;
  std::string primary_rel = scope->vars[0].second;
  for (const auto& [var, rel] : scope->vars) {
    if (var == primary_var) primary_rel = rel;
  }

  std::set<std::pair<std::string, RowId>> scheduled;
  for (const auto& ids : victims.row_ids) {
    // Primary first so shared tuples are reference-checked against a
    // database that still contains everything except prior scheduled work.
    for (const auto& [var, rel] : scope->vars) {
      if (std::find(cr.begin(), cr.end(), rel) == cr.end()) continue;
      auto pos = alias_pos.find(var);
      if (pos == alias_pos.end()) continue;
      RowId id = ids[pos->second];
      if (scheduled.count({rel, id}) > 0) continue;
      UFILTER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ctx_, rel));
      const Row* row = table->GetRow(id);
      if (row == nullptr) continue;

      if (minimize && var != primary_var) {
        // Reference check: is this tuple still used by other view content?
        auto primary_pos = alias_pos.find(primary_var);
        Value primary_key_value;
        std::string primary_key_col;
        if (primary_pos != alias_pos.end()) {
          UFILTER_ASSIGN_OR_RETURN(Table * ptable, db_->GetTable(ctx_, primary_rel));
          const Row* prow = ptable->GetRow(ids[primary_pos->second]);
          const auto& ppk = ptable->schema().primary_key();
          if (prow != nullptr && ppk.size() == 1) {
            primary_key_col = ppk[0];
            primary_key_value =
                (*prow)[static_cast<size_t>(
                    ptable->schema().ColumnIndex(ppk[0]))];
          }
        }
        UFILTER_ASSIGN_OR_RETURN(
            bool referenced,
            TupleReferencedElsewhere(rel, *row, primary_rel, primary_key_col,
                                     primary_key_value));
        if (referenced) continue;  // minimization: keep the shared tuple
      }

      UpdateOp op;
      op.kind = UpdateOpKind::kDelete;
      op.table = rel;
      op.where = KeyPredicates(table->schema(), *row);
      ops.push_back(std::move(op));
      scheduled.insert({rel, id});
    }
  }
  return ops;
}

Result<bool> Translator::TupleReferencedElsewhere(
    const std::string& relation, const Row& tuple,
    const std::string& excluded_rel, const std::string& excluded_key_col,
    const Value& excluded_key_value) {
  UFILTER_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(ctx_, relation));
  const TableSchema& schema = table->schema();
  if (schema.primary_key().empty()) return true;  // conservative

  QueryEvaluator evaluator(db_, ctx_);
  // Every internal view node whose UCBinding includes `relation` describes
  // view content that may reference this tuple.
  std::set<std::string> probed;
  for (const asg::ViewNode& node : gv_->nodes()) {
    if (node.kind != asg::NodeKind::kComplex) continue;
    if (std::find(node.uc_binding.begin(), node.uc_binding.end(), relation) ==
        node.uc_binding.end()) {
      continue;
    }
    const AvNode* av = node.av;
    if (av == nullptr) continue;
    std::vector<const Scope*> chain = ScopeChain(av);
    auto vars = ChainVars(chain);
    // One probe per distinct chain signature.
    std::string sig;
    for (const auto& [v, r] : vars) sig += v + ":" + r + ";";
    if (!probed.insert(sig).second) continue;

    SelectQuery query;
    for (const auto& [var, rel] : vars) query.tables.push_back({rel, var});
    for (const Scope* s : chain) {
      for (const ResolvedCondition& cond : s->conditions) {
        if (cond.is_correlation) {
          query.joins.push_back({ColRef{cond.lhs.variable, cond.lhs.attr},
                                 cond.op,
                                 ColRef{cond.rhs.variable, cond.rhs.attr}});
        } else {
          query.filters.push_back({ColRef{cond.lhs.variable, cond.lhs.attr},
                                   cond.op, cond.literal});
        }
      }
    }
    // Pin the tuple via the first chain variable bound to `relation`.
    std::string pin_var;
    for (const auto& [var, rel] : vars) {
      if (rel == relation) {
        pin_var = var;
        break;
      }
    }
    if (pin_var.empty()) continue;
    for (const std::string& pk : schema.primary_key()) {
      int c = schema.ColumnIndex(pk);
      query.filters.push_back({ColRef{pin_var, pk}, CompareOp::kEq,
                               tuple[static_cast<size_t>(c)]});
      AddSelect(&query, pin_var, pk);
    }
    // Exclude the instance being deleted.
    if (!excluded_key_col.empty()) {
      for (const auto& [var, rel] : vars) {
        if (rel == excluded_rel) {
          query.filters.push_back({ColRef{var, excluded_key_col},
                                   CompareOp::kNe, excluded_key_value});
          break;
        }
      }
    }
    UFILTER_ASSIGN_OR_RETURN(bool referenced, evaluator.Exists(query));
    if (referenced) return true;
  }
  return false;
}

Result<std::vector<UpdateOp>> Translator::TranslateInsert(
    const BoundUpdate& update, const SelectQuery& anchor_query,
    const QueryResult& anchors) {
  std::vector<UpdateOp> ops;
  if (update.payload == nullptr) {
    return Status::InvalidArgument("insert without payload");
  }
  // Anchor values keyed "variable.column".
  std::vector<std::map<std::string, Value>> anchor_rows;
  if (anchor_query.tables.empty()) {
    anchor_rows.emplace_back();  // root context: one trivial anchor
  } else {
    for (const Row& row : anchors.rows) {
      std::map<std::string, Value> m;
      for (size_t i = 0; i < anchors.column_names.size(); ++i) {
        m[anchors.column_names[i]] = row[i];
      }
      anchor_rows.push_back(std::move(m));
    }
  }
  std::set<std::string> emitted;  // dedupe identical ops
  for (const auto& anchor : anchor_rows) {
    std::vector<UpdateOp> batch;
    UFILTER_RETURN_NOT_OK(
        CollectInsertOps(update.target_node, *update.payload, anchor, &batch));
    for (UpdateOp& op : batch) {
      std::string key = op.ToSql();
      if (emitted.insert(key).second) ops.push_back(std::move(op));
    }
  }
  return ops;
}

Status Translator::CollectInsertOps(
    int node_id, const xml::Node& payload,
    const std::map<std::string, Value>& anchor_values,
    std::vector<UpdateOp>* ops) {
  const asg::ViewNode& node = gv_->node(node_id);
  std::vector<std::string> relations = gv_->CurrentRelations(node_id);
  std::map<std::string, std::map<std::string, Value>> values;  // rel -> col

  // Recursive leaf-value gathering, stopping at * children (those become
  // child inserts of their own).
  std::vector<std::pair<int, const xml::Node*>> star_children;
  std::function<Status(int, const xml::Node&)> Gather =
      [&](int nid, const xml::Node& el) -> Status {
    const asg::ViewNode& n = gv_->node(nid);
    std::map<std::string, int> by_tag;
    for (int c : n.children) by_tag[gv_->node(c).tag] = c;
    for (const xml::NodePtr& child : el.children()) {
      if (!child->is_element()) continue;
      auto it = by_tag.find(child->label());
      if (it == by_tag.end()) continue;  // validation already rejected these
      const asg::ViewNode& cn = gv_->node(it->second);
      if (cn.card == asg::Cardinality::kStar) {
        star_children.emplace_back(it->second, child.get());
        continue;
      }
      if (cn.kind == asg::NodeKind::kTag) {
        if (cn.children.empty()) continue;
        const asg::ViewNode& leaf = gv_->node(cn.children[0]);
        std::string text = child->TextContent();
        if (text.empty()) continue;  // NULL
        UFILTER_ASSIGN_OR_RETURN(Value v, Value::FromText(text, leaf.type));
        values[leaf.relation][leaf.attr] = std::move(v);
      } else if (cn.kind == asg::NodeKind::kComplex) {
        UFILTER_RETURN_NOT_OK(Gather(it->second, *child));
      }
    }
    return Status::OK();
  };
  UFILTER_RETURN_NOT_OK(Gather(node_id, payload));

  auto InRelations = [&](const std::string& r) {
    return std::find(relations.begin(), relations.end(), r) !=
           relations.end();
  };
  auto SideValue = [&](const AttrRef& side) -> const Value* {
    auto rit = values.find(side.relation);
    if (rit != values.end()) {
      auto cit = rit->second.find(side.attr);
      if (cit != rit->second.end()) return &cit->second;
    }
    auto ait = anchor_values.find(side.variable + "." + side.attr);
    if (ait != anchor_values.end()) return &ait->second;
    return nullptr;
  };

  // Seed join columns of the inserted relations directly from the anchor
  // row when available (a replace's victim probe binds the element's own
  // chain, so both condition sides may already resolve from the anchor —
  // the values still have to reach the INSERT).
  for (const ResolvedCondition& cond : node.edge_conditions) {
    if (!cond.is_correlation) continue;
    for (const AttrRef* side : {&cond.lhs, &cond.rhs}) {
      if (!InRelations(side->relation)) continue;
      if (values[side->relation].count(side->attr) > 0) continue;
      auto it = anchor_values.find(side->variable + "." + side->attr);
      if (it != anchor_values.end() && !it->second.is_null()) {
        values[side->relation][side->attr] = it->second;
      }
    }
  }

  // Fill FK / join columns from the element's edge conditions (iterate to a
  // fixpoint so chains like anchor -> book.pubid -> publisher.pubid fill).
  bool progress = true;
  while (progress) {
    progress = false;
    for (const ResolvedCondition& cond : node.edge_conditions) {
      if (!cond.is_correlation || cond.op != CompareOp::kEq) continue;
      const Value* lhs = SideValue(cond.lhs);
      const Value* rhs = SideValue(cond.rhs);
      if (lhs != nullptr && rhs == nullptr && InRelations(cond.rhs.relation)) {
        values[cond.rhs.relation][cond.rhs.attr] = *lhs;
        progress = true;
      } else if (rhs != nullptr && lhs == nullptr &&
                 InRelations(cond.lhs.relation)) {
        values[cond.lhs.relation][cond.lhs.attr] = *rhs;
        progress = true;
      }
    }
  }

  // Pin attributes constrained by the element's selection predicates so the
  // inserted element is visible in the view (e.g. the paper's U2 supplies a
  // qualifying year for book.year > 1990).
  for (const ResolvedCondition& cond : node.edge_conditions) {
    if (cond.is_correlation) continue;
    if (!InRelations(cond.lhs.relation)) continue;
    auto& rel_values = values[cond.lhs.relation];
    if (rel_values.count(cond.lhs.attr) > 0) continue;
    rel_values[cond.lhs.attr] = SatisfyingValue(cond.op, cond.literal);
  }
  if (node.av != nullptr && node.av->scope != nullptr) {
    for (const ResolvedCondition& cond : node.av->scope->conditions) {
      if (cond.is_correlation) continue;
      if (!InRelations(cond.lhs.relation)) continue;
      auto& rel_values = values[cond.lhs.relation];
      if (rel_values.count(cond.lhs.attr) > 0) continue;
      rel_values[cond.lhs.attr] = SatisfyingValue(cond.op, cond.literal);
    }
  }

  // Emit inserts in FK topological order (referenced tables first).
  std::vector<std::string> ordered = relations;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [&](const std::string& a, const std::string& b) {
                     // a before b if b references a.
                     auto tb = view_->schema().FindTable(b);
                     if (!tb.ok()) return false;
                     for (const auto& fk : (*tb)->foreign_keys()) {
                       if (fk.ref_table == a) return true;
                     }
                     return false;
                   });
  for (const std::string& rel : ordered) {
    UpdateOp op;
    op.kind = UpdateOpKind::kInsert;
    op.table = rel;
    auto it = values.find(rel);
    if (it != values.end()) op.values = it->second;
    ops->push_back(std::move(op));
  }

  // Nested repeating children in the payload become child inserts. Their
  // anchor values are the current element's gathered values.
  for (const auto& [child_id, child_el] : star_children) {
    std::map<std::string, Value> child_anchor = anchor_values;
    for (const auto& [rel, cols] : values) {
      // Key both by relation and by the variables bound to it in this scope.
      for (const auto& [col, v] : cols) {
        child_anchor[rel + "." + col] = v;
        if (node.av != nullptr && node.av->scope != nullptr) {
          for (const Scope* s = node.av->scope; s != nullptr; s = s->parent) {
            for (const auto& [var, r] : s->vars) {
              if (r == rel) child_anchor[var + "." + col] = v;
            }
          }
        }
      }
    }
    UFILTER_RETURN_NOT_OK(
        CollectInsertOps(child_id, *child_el, child_anchor, ops));
  }
  return Status::OK();
}

Value Translator::SatisfyingValue(CompareOp op, const Value& literal) const {
  switch (op) {
    case CompareOp::kEq:
    case CompareOp::kGe:
    case CompareOp::kLe:
      return literal;
    case CompareOp::kGt:
      if (literal.is_int()) return Value::Int(literal.AsInt() + 1);
      if (literal.is_double()) return Value::Double(literal.AsDouble() + 1.0);
      return Value::String(literal.ToText() + "~");
    case CompareOp::kLt:
      if (literal.is_int()) return Value::Int(literal.AsInt() - 1);
      if (literal.is_double()) return Value::Double(literal.AsDouble() - 1.0);
      return Value::String("");
    case CompareOp::kNe:
      if (literal.is_int()) return Value::Int(literal.AsInt() + 1);
      if (literal.is_double()) return Value::Double(literal.AsDouble() + 1.0);
      return Value::String(literal.ToText() + "_alt");
  }
  return literal;
}

Status Translator::EnforceDuplicationConsistency(
    const BoundUpdate& update, std::vector<UpdateOp>* ops) {
  // The element's own (primary) relation is strict.
  std::string strict_rel;
  if (update.target != nullptr && update.target->scope != nullptr &&
      !update.target->scope->vars.empty()) {
    strict_rel = update.target->scope->vars[0].second;
  }
  std::vector<UpdateOp> kept;
  for (UpdateOp& op : *ops) {
    if (op.kind != UpdateOpKind::kInsert) {
      kept.push_back(std::move(op));
      continue;
    }
    UFILTER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(ctx_, op.table));
    const TableSchema& schema = table->schema();
    std::vector<ColumnPredicate> key_preds;
    bool have_full_key = !schema.primary_key().empty();
    for (const std::string& pk : schema.primary_key()) {
      auto it = op.values.find(pk);
      if (it == op.values.end() || it->second.is_null()) {
        have_full_key = false;
        break;
      }
      key_preds.push_back({pk, CompareOp::kEq, it->second});
    }
    if (!have_full_key) {
      kept.push_back(std::move(op));
      continue;
    }
    std::vector<RowId> existing = table->Find(key_preds, &db_->counters());
    if (existing.empty()) {
      kept.push_back(std::move(op));
      continue;
    }
    if (op.table == strict_rel) {
      return Status::DataConflict(
          "a tuple with the same key already exists in '" + op.table +
          "' — the inserted element would collide with existing view "
          "content");
    }
    // Secondary relation: duplicate allowed iff consistent.
    const Row* row = table->GetRow(existing[0]);
    for (const auto& [col, v] : op.values) {
      int c = schema.ColumnIndex(col);
      if (c < 0) continue;
      const Value& existing_v = (*row)[static_cast<size_t>(c)];
      if (!v.is_null() && !(v == existing_v)) {
        return Status::DataConflict(
            "duplication consistency violated: payload value " +
            v.ToSqlLiteral() + " for " + op.table + "." + col +
            " differs from the existing tuple's " +
            existing_v.ToSqlLiteral());
      }
    }
    // Consistent duplicate: reuse the existing tuple, drop the insert.
  }
  *ops = std::move(kept);
  return Status::OK();
}

}  // namespace ufilter::check
