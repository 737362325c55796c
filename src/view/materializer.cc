#include "view/materializer.h"

#include <map>

namespace ufilter::view {

namespace {

using relational::ColumnPredicate;
using relational::Database;
using relational::Row;
using relational::RowId;
using relational::Table;

struct BoundVar {
  const Table* table;
  const Row* row;
};

using Env = std::map<std::string, BoundVar>;

class Emitter {
 public:
  explicit Emitter(Database* db) : db_(db) {}

  Status EmitChildren(const AvNode& node, Env* env, xml::Node* out) {
    for (const auto& child : node.children) {
      switch (child->kind) {
        case AvNode::Kind::kGroup:
          UFILTER_RETURN_NOT_OK(EmitGroup(*child, env, out));
          break;
        case AvNode::Kind::kSimple:
          UFILTER_RETURN_NOT_OK(EmitSimple(*child, *env, out));
          break;
        case AvNode::Kind::kComplex: {
          xml::Node* el = out->AddChild(xml::Node::Element(child->tag));
          UFILTER_RETURN_NOT_OK(EmitChildren(*child, env, el));
          break;
        }
        case AvNode::Kind::kRoot:
          return Status::Internal("nested root node");
      }
    }
    return Status::OK();
  }

 private:
  Status EmitSimple(const AvNode& node, const Env& env, xml::Node* out) {
    auto it = env.find(node.variable);
    if (it == env.end()) {
      return Status::Internal("unbound variable $" + node.variable +
                              " during materialization");
    }
    int c = it->second.table->schema().ColumnIndex(node.attr);
    if (c < 0) {
      return Status::Internal("missing column " + node.attr);
    }
    const Value& v = (*it->second.row)[static_cast<size_t>(c)];
    if (v.is_null()) return Status::OK();  // absent element for NULL
    out->AddChild(xml::Node::SimpleElement(node.tag, v.ToText()));
    return Status::OK();
  }

  /// Returns the current value of `ref` from the environment, or nullptr if
  /// its variable is not bound yet.
  const Value* Lookup(const Env& env, const AttrRef& ref) {
    auto it = env.find(ref.variable);
    if (it == env.end()) return nullptr;
    int c = it->second.table->schema().ColumnIndex(ref.attr);
    if (c < 0) return nullptr;
    return &(*it->second.row)[static_cast<size_t>(c)];
  }

  Status EmitGroup(const AvNode& group, Env* env, xml::Node* out) {
    return BindFrom(group, 0, env, out);
  }

  Status BindFrom(const AvNode& group, size_t var_index, Env* env,
                  xml::Node* out) {
    const Scope& scope = *group.scope;
    if (var_index == scope.vars.size()) {
      // All bound: verify every condition of this scope, then emit contents.
      for (const ResolvedCondition& cond : scope.conditions) {
        const Value* lhs = Lookup(*env, cond.lhs);
        if (lhs == nullptr) {
          return Status::Internal("unresolvable condition " + cond.ToString());
        }
        bool pass;
        if (cond.is_correlation) {
          const Value* rhs = Lookup(*env, cond.rhs);
          if (rhs == nullptr) {
            return Status::Internal("unresolvable condition " +
                                    cond.ToString());
          }
          pass = EvalCompare(*lhs, cond.op, *rhs);
        } else {
          pass = EvalCompare(*lhs, cond.op, cond.literal);
        }
        if (!pass) return Status::OK();
      }
      return EmitChildren(group, env, out);
    }

    const auto& [var, relation] = scope.vars[var_index];
    UFILTER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(relation));

    // Collect pushdown predicates for this variable.
    std::vector<ColumnPredicate> preds;
    for (const ResolvedCondition& cond : scope.conditions) {
      if (!cond.is_correlation) {
        if (cond.lhs.variable == var) {
          preds.push_back({cond.lhs.attr, cond.op, cond.literal});
        }
        continue;
      }
      if (cond.lhs.variable == var) {
        const Value* bound = Lookup(*env, cond.rhs);
        if (bound != nullptr && !bound->is_null()) {
          preds.push_back({cond.lhs.attr, cond.op, *bound});
        }
      } else if (cond.rhs.variable == var) {
        const Value* bound = Lookup(*env, cond.lhs);
        if (bound != nullptr && !bound->is_null()) {
          preds.push_back({cond.rhs.attr, FlipCompareOp(cond.op), *bound});
        }
      }
    }

    for (RowId id : table->Find(preds, &db_->counters())) {
      const Row* row = table->GetRow(id);
      if (row == nullptr) continue;
      (*env)[var] = BoundVar{table, row};
      UFILTER_RETURN_NOT_OK(BindFrom(group, var_index + 1, env, out));
    }
    env->erase(var);
    return Status::OK();
  }

  Database* db_;
};

}  // namespace

Result<xml::NodePtr> Materializer::Materialize(const AnalyzedView& view) {
  xml::NodePtr root = xml::Node::Element(view.root().tag);
  Env env;
  Emitter emitter(db_);
  UFILTER_RETURN_NOT_OK(emitter.EmitChildren(view.root(), &env, root.get()));
  return root;
}

}  // namespace ufilter::view
