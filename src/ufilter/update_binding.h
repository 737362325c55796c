// Binds a parsed view update statement to the analyzed view / view ASG:
// resolves its FOR variables to view elements, its WHERE predicates to
// relational attributes, and its target (victim or insert payload anchor) to
// an ASG node. Everything downstream (validation, STAR, data checks,
// translation) works on the BoundUpdate.
#ifndef UFILTER_UFILTER_UPDATE_BINDING_H_
#define UFILTER_UFILTER_UPDATE_BINDING_H_

#include <map>
#include <string>
#include <vector>

#include "asg/view_asg.h"
#include "common/result.h"
#include "view/analyzed_view.h"
#include "xquery/ast.h"

namespace ufilter::check {

/// A WHERE conjunct of the update, resolved against the view: the attribute
/// the compared view leaf projects, plus the literal and its parameter slot
/// (xq::Operand::param). In a compiled shape the literal is blank and only
/// the slot counts; a request's binding fills the literal in.
struct BoundPredicate {
  view::AttrRef attr;
  CompareOp op = CompareOp::kEq;
  Value literal;
  int param = -1;

  std::string ToString() const;
};

/// \brief An update statement resolved against a specific view.
struct BoundUpdate {
  xq::UpdateOpType op = xq::UpdateOpType::kInsert;

  /// Element the UPDATE clause is anchored at ($target).
  const view::AvNode* context = nullptr;
  /// For delete/replace: the element (or simple element for /text()) being
  /// removed. For insert: the view element type the payload instantiates
  /// (child of `context` matching the payload's root tag).
  const view::AvNode* target = nullptr;
  /// ASG node id of `target` (tag node for simple elements).
  int target_node = -1;
  /// True when the victim path ended in /text() (leaf value deletion).
  bool text_only = false;

  /// Update WHERE conjuncts resolved to relational attributes.
  std::vector<BoundPredicate> predicates;

  /// Insert/replace payload (owned by the statement, or by the request's
  /// binding).
  const xml::Node* payload = nullptr;
};

/// Resolves `stmt`'s first action against the view. Fails with
/// InvalidUpdate when the statement references elements the view does not
/// have (structural conflicts surface here, e.g. inserting a <review> into
/// <publisher>).
Result<BoundUpdate> BindUpdate(const view::AnalyzedView& view,
                               const asg::ViewAsg& gv,
                               const xq::UpdateStmt& stmt);

/// Resolves one specific action of a (possibly multi-action) statement.
Result<BoundUpdate> BindUpdateAction(const view::AnalyzedView& view,
                                     const asg::ViewAsg& gv,
                                     const xq::UpdateStmt& stmt,
                                     const xq::UpdateAction& action);

}  // namespace ufilter::check

#endif  // UFILTER_UFILTER_UPDATE_BINDING_H_
