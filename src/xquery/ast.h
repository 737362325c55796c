// AST for the XQuery fragment U-Filter handles:
//  - view queries: nested FLWR expressions with element constructors and
//    `$var/path` projections (Fig. 3a),
//  - view updates: the Tatarinov-style `FOR ... WHERE ... UPDATE $v { ... }`
//    statements (Fig. 4 / Fig. 10).
#ifndef UFILTER_XQUERY_AST_H_
#define UFILTER_XQUERY_AST_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/value.h"
#include "xml/node.h"

namespace ufilter::xq {

/// A path expression: either rooted at document("..."), or at a variable.
/// `steps` are child element steps; `text_fn` marks a trailing /text().
struct Path {
  bool from_document = false;
  std::string document;   ///< when from_document
  std::string variable;   ///< when !from_document
  std::vector<std::string> steps;
  bool text_fn = false;

  std::string ToString() const;
};

/// One side of a comparison: a path or a literal.
struct Operand {
  enum class Kind { kPath, kLiteral };
  Kind kind = Kind::kLiteral;
  Path path;
  Value literal;
  /// Update literals: the literal's parameter slot, its position among the
  /// statement's lifted literals (xquery/normalize.h). -1 in view queries.
  int param = -1;

  bool is_path() const { return kind == Kind::kPath; }
  std::string ToString() const;
};

/// `lhs <op> rhs` conjunct of a WHERE clause.
struct Condition {
  Operand lhs;
  CompareOp op = CompareOp::kEq;
  Operand rhs;

  /// A correlation predicate compares two paths; a non-correlation predicate
  /// compares a path with a literal (Section 3.1).
  bool IsCorrelation() const { return lhs.is_path() && rhs.is_path(); }
  std::string ToString() const;
};

/// `$var IN path` (or `$var = path` in updates).
struct ForBinding {
  std::string variable;
  Path path;
};

struct Flwr;
using FlwrPtr = std::unique_ptr<Flwr>;

struct ElementCtor;
using ElementCtorPtr = std::unique_ptr<ElementCtor>;

/// One piece of RETURN content: a projection path, a literal element
/// constructor, or a nested FLWR.
struct Content {
  enum class Kind { kProjection, kElement, kFlwr };
  Kind kind = Kind::kProjection;
  Path projection;
  ElementCtorPtr element;
  FlwrPtr flwr;
};

/// `<tag> content, content, ... </tag>`.
struct ElementCtor {
  std::string tag;
  std::vector<Content> children;
};

/// FOR bindings WHERE conditions RETURN { contents }.
struct Flwr {
  std::vector<ForBinding> bindings;
  std::vector<Condition> conditions;
  std::vector<Content> contents;
};

/// \brief A parsed view query: root tag wrapping top-level FLWRs.
///
/// A bare FLWR view query gets the dummy root tag "root" (Section 3.2:
/// "we would simply add a dummy root node").
struct ViewQuery {
  std::string root_tag;
  std::vector<FlwrPtr> flwrs;
};

/// Kind of view update operation.
enum class UpdateOpType { kInsert, kDelete, kReplace };

const char* UpdateOpTypeName(UpdateOpType t);

/// One operation of an UPDATE block: INSERT <payload>,
/// DELETE $var/path[/text()], or REPLACE $var/path WITH <payload>.
struct UpdateAction {
  UpdateOpType op = UpdateOpType::kInsert;
  /// INSERT / REPLACE: the new element.
  xml::NodePtr payload;
  /// The parameter slot of the payload's first text node; its other text
  /// nodes take the following slots in document order.
  int payload_param = -1;
  /// DELETE / REPLACE: victim path (rooted at a bound variable).
  Path victim;
};

/// \brief A parsed view update statement.
///
/// `FOR bindings WHERE conditions UPDATE $target { action, action, ... }` —
/// the update language of Tatarinov et al. allows several comma-separated
/// operations per UPDATE block; U-Filter checks them atomically (the whole
/// statement is rejected if any action is). The first action is mirrored in
/// `op`/`payload`/`victim` for the common single-action case.
struct UpdateStmt {
  std::vector<ForBinding> bindings;
  std::vector<Condition> conditions;
  std::string target_variable;
  /// All actions of the UPDATE block, in source order (size >= 1).
  std::vector<UpdateAction> actions;
  // Mirrors of actions[0] (payload is non-owning; actions own theirs):
  UpdateOpType op = UpdateOpType::kInsert;
  const xml::Node* payload = nullptr;
  Path victim;

  /// Refreshes the actions[0] mirrors (parser calls this once).
  void SyncMirrors() {
    if (actions.empty()) return;
    op = actions[0].op;
    payload = actions[0].payload.get();
    victim = actions[0].victim;
  }
};

}  // namespace ufilter::xq

#endif  // UFILTER_XQUERY_AST_H_
