#include "ufilter/update_binding.h"

namespace ufilter::check {

using view::AnalyzedView;
using view::AvNode;

std::string BoundPredicate::ToString() const {
  return attr.ToString() + " " + CompareOpSymbol(op) + " " +
         literal.ToSqlLiteral();
}

namespace {

/// Finds the element child of `from` with tag `tag` (through groups).
const AvNode* ChildByTag(const AvNode* from, const std::string& tag) {
  for (const AvNode* c : from->ElementChildren()) {
    if (c->tag == tag) return c;
  }
  return nullptr;
}

class Binder {
 public:
  Binder(const AnalyzedView& view, const asg::ViewAsg& gv,
         const xq::UpdateStmt& stmt, const xq::UpdateAction& action)
      : view_(view), gv_(gv), stmt_(stmt), action_(action) {}

  Result<BoundUpdate> Run() {
    BoundUpdate out;
    out.op = action_.op;

    // Resolve FOR bindings in order.
    for (const xq::ForBinding& b : stmt_.bindings) {
      UFILTER_ASSIGN_OR_RETURN(const AvNode* node, ResolvePath(b.path));
      vars_[b.variable] = node;
    }

    // Resolve WHERE predicates.
    for (const xq::Condition& c : stmt_.conditions) {
      UFILTER_ASSIGN_OR_RETURN(BoundPredicate pred, ResolvePredicate(c));
      out.predicates.push_back(std::move(pred));
    }

    // Resolve the UPDATE anchor.
    auto it = vars_.find(stmt_.target_variable);
    if (it == vars_.end()) {
      return Status::InvalidUpdate("UPDATE references unbound variable $" +
                                   stmt_.target_variable);
    }
    out.context = it->second;

    switch (action_.op) {
      case xq::UpdateOpType::kDelete:
        UFILTER_RETURN_NOT_OK(ResolveVictim(&out));
        break;
      case xq::UpdateOpType::kInsert:
        UFILTER_RETURN_NOT_OK(ResolveInsert(&out));
        break;
      case xq::UpdateOpType::kReplace:
        UFILTER_RETURN_NOT_OK(ResolveVictim(&out));
        out.payload = action_.payload.get();
        break;
    }
    return out;
  }

 private:
  /// Resolves a statement path to a view element. Document paths start at
  /// the view root; variable paths start at an earlier binding.
  Result<const AvNode*> ResolvePath(const xq::Path& path) {
    const AvNode* current = nullptr;
    if (path.from_document) {
      current = &view_.root();
    } else {
      auto it = vars_.find(path.variable);
      if (it == vars_.end()) {
        return Status::InvalidUpdate("unbound variable $" + path.variable +
                                     " in update path");
      }
      current = it->second;
    }
    for (const std::string& step : path.steps) {
      const AvNode* next = ChildByTag(current, step);
      if (next == nullptr) {
        return Status::InvalidUpdate("view has no element <" + step +
                                     "> under <" +
                                     (current->kind == AvNode::Kind::kRoot
                                          ? current->tag
                                          : current->tag) +
                                     ">");
      }
      current = next;
    }
    return current;
  }

  Result<BoundPredicate> ResolvePredicate(const xq::Condition& cond) {
    // Normalize literal to the right.
    const xq::Operand* path_side = &cond.lhs;
    const xq::Operand* lit_side = &cond.rhs;
    CompareOp op = cond.op;
    if (!path_side->is_path()) {
      path_side = &cond.rhs;
      lit_side = &cond.lhs;
      op = FlipCompareOp(op);
    }
    if (!path_side->is_path() || lit_side->is_path()) {
      return Status::NotSupported(
          "update WHERE must compare a view path with a literal: " +
          cond.ToString());
    }
    UFILTER_ASSIGN_OR_RETURN(const AvNode* node,
                             ResolvePath(path_side->path));
    if (node->kind != AvNode::Kind::kSimple) {
      return Status::InvalidUpdate("predicate path " +
                                   path_side->path.ToString() +
                                   " does not reach a simple view element");
    }
    BoundPredicate out;
    out.attr = view::AttrRef{node->variable, node->relation, node->attr};
    out.op = op;
    out.literal = lit_side->literal;
    out.param = lit_side->param;
    return out;
  }

  Status ResolveVictim(BoundUpdate* out) {
    const xq::Path& victim = action_.victim;
    UFILTER_ASSIGN_OR_RETURN(const AvNode* node, ResolvePath(victim));
    out->target = node;
    out->text_only = victim.text_fn;
    const asg::ViewNode* asg_node = gv_.NodeForAv(node);
    if (asg_node == nullptr) {
      return Status::Internal("no ASG node for resolved victim");
    }
    out->target_node = asg_node->id;
    if (victim.text_fn) {
      // text() of a simple element: target the leaf node under the tag.
      if (node->kind != AvNode::Kind::kSimple) {
        return Status::InvalidUpdate(
            "text() deletion applies to simple elements only");
      }
      if (!asg_node->children.empty()) {
        out->target_node = asg_node->children[0];  // the vL node
      }
    }
    return Status::OK();
  }

  Status ResolveInsert(BoundUpdate* out) {
    if (action_.payload == nullptr || !action_.payload->is_element()) {
      return Status::InvalidUpdate("INSERT requires an element payload");
    }
    out->payload = action_.payload.get();
    const AvNode* target = ChildByTag(out->context, action_.payload->label());
    if (target == nullptr) {
      return Status::InvalidUpdate(
          "view does not allow element <" + action_.payload->label() +
          "> under <" + out->context->tag + ">");
    }
    out->target = target;
    const asg::ViewNode* asg_node = gv_.NodeForAv(target);
    if (asg_node == nullptr) {
      return Status::Internal("no ASG node for resolved insert target");
    }
    out->target_node = asg_node->id;
    return Status::OK();
  }

  const AnalyzedView& view_;
  const asg::ViewAsg& gv_;
  const xq::UpdateStmt& stmt_;
  const xq::UpdateAction& action_;
  std::map<std::string, const AvNode*> vars_;
};

}  // namespace

Result<BoundUpdate> BindUpdate(const AnalyzedView& view,
                               const asg::ViewAsg& gv,
                               const xq::UpdateStmt& stmt) {
  if (stmt.actions.empty()) {
    return Status::InvalidUpdate("update statement has no action");
  }
  return BindUpdateAction(view, gv, stmt, stmt.actions[0]);
}

Result<BoundUpdate> BindUpdateAction(const AnalyzedView& view,
                                     const asg::ViewAsg& gv,
                                     const xq::UpdateStmt& stmt,
                                     const xq::UpdateAction& action) {
  Binder binder(view, gv, stmt, action);
  return binder.Run();
}

}  // namespace ufilter::check
