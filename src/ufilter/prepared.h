// The compile-time half of the U-Filter pipeline (Fig. 5, left of the
// per-update loop), split along what reads an update's literal values.
//
// A CompiledShape holds everything U-Filter compiles for an update *shape*
// (its text with the literal values taken out, xquery/normalize.h): the
// parsed statement, each action's binding to the view schema, its STAR
// classification (Section 5 reads only the marks of the target node) and
// its step-3 probe plans, composed and planned with parameter slots where
// the literals go. It reads no literal, so the plan cache keeps one per
// shape and every request of that shape shares it.
//
// A PreparedUpdate is one request's bind of a shape: the request's literal
// values, its payload trees, its WHERE predicates with their values, and
// the request's step-1 validation (NOT NULL, CHECK and domain checks read
// values, so every message quoting a value is the request's own).
// UFilter::Prepare produces it; UFilter::Execute replays it against current
// data any number of times, paying only step 3.
#ifndef UFILTER_UFILTER_PREPARED_H_
#define UFILTER_UFILTER_PREPARED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ufilter/datacheck.h"
#include "ufilter/star.h"
#include "ufilter/update_binding.h"
#include "xquery/ast.h"
#include "xquery/normalize.h"

namespace ufilter::check {

class UFilter;

/// One action of a compiled shape. When binding failed, `bound` is unusable
/// and `bind_error` carries the step-1 rejection (binding reads no value).
/// STAR and the probes are compiled for every action that binds; `probes`
/// holds the step-3 probe queries composed and physically compiled
/// (cost-based plan), so Execute replays them with zero name resolution.
struct ShapeAction {
  BoundUpdate bound;  ///< predicates hold parameter slots, payload no text
  Status bind_error;
  bool bound_ok = false;
  StarVerdict star;
  bool star_computed = false;
  CompiledProbeSet probes;
  /// Parameter slot of the payload's first text node (see xq::UpdateAction).
  int payload_param = -1;
};

/// \brief Everything compiled for one update shape; immutable, shared by
/// the plan cache across requests and threads.
class CompiledShape {
 public:
  const std::vector<ShapeAction>& actions() const { return actions_; }

 private:
  friend class UFilter;

  /// The statement the actions' bindings point into.
  std::unique_ptr<xq::UpdateStmt> stmt_;
  std::vector<ShapeAction> actions_;
  /// Seconds the compile spent in parse + bind, and in STAR.
  double step1_seconds_ = 0;
  double step2_seconds_ = 0;
};

/// One action of a request: the shape's action bound to the request's
/// values. `bound_ok` means the action passed step 1 (binding and the
/// request's validation); otherwise `step1_error` carries the rejection.
struct PreparedAction {
  BoundUpdate bound;  ///< the request's predicate values and payload
  Status step1_error;
  bool bound_ok = false;
  const ShapeAction* shape = nullptr;  ///< STAR verdict and probe plans

  /// STAR classified this action (it passed step 1 and the shape was
  /// compiled with STAR).
  bool star_computed() const { return bound_ok && shape->star_computed; }
};

/// \brief One request's prepared update, bound to one UFilter instance.
///
/// Immutable after Prepare, so Execute never mutates a plan. The actions'
/// bindings point into the shared CompiledShape, into this request's
/// payload trees and into the owner's analyzed view, hence the
/// owner/signature checks in UFilter::Execute.
class PreparedUpdate {
 public:
  /// The update's shape: the plan-cache key.
  const std::string& normalized_text() const { return normalized_text_; }
  /// Hash of the shape, computed on demand: it groups one template's
  /// requests (slow log, cross-process plan identification); the
  /// in-process cache keys on the text itself.
  uint64_t template_hash() const {
    return xq::HashUpdateTemplate(normalized_text_);
  }

  /// Parse failure for the whole statement; when set, `actions()` is empty.
  const Status& parse_error() const { return parse_error_; }
  bool parsed() const { return parse_error_.ok(); }

  const std::vector<PreparedAction>& actions() const { return actions_; }
  /// The request's literal values, by parameter slot.
  const std::vector<Value>& params() const { return params_; }

  /// Weakest STAR classification across classified actions; kUnclassified
  /// when no action was classified (e.g. step-1 rejection).
  Translatability star_class() const {
    Translatability weakest = Translatability::kUnclassified;
    for (const PreparedAction& a : actions_) {
      if (!a.star_computed()) continue;
      if (weakest == Translatability::kUnclassified ||
          static_cast<int>(a.shape->star.result) <
              static_cast<int>(weakest)) {
        weakest = a.shape->star.result;
      }
    }
    return weakest;
  }

  /// Seconds spent in step 1 (parse + bind when this request compiled its
  /// shape, plus its validation) and in step 2 (STAR, when it compiled).
  double compile_step1_seconds() const { return step1_seconds_; }
  double compile_step2_seconds() const { return step2_seconds_; }

  /// The UFilter this plan was prepared against and the structural signature
  /// of its view at compile time.
  const UFilter* owner() const { return owner_; }
  uint64_t view_signature() const { return view_signature_; }

 private:
  friend class UFilter;
  PreparedUpdate() = default;

  std::string normalized_text_;
  Status parse_error_;
  std::shared_ptr<const CompiledShape> shape_;
  std::vector<Value> params_;
  std::vector<xml::NodePtr> payloads_;
  std::vector<PreparedAction> actions_;
  double step1_seconds_ = 0;
  double step2_seconds_ = 0;
  const UFilter* owner_ = nullptr;
  uint64_t view_signature_ = 0;
};

}  // namespace ufilter::check

#endif  // UFILTER_UFILTER_PREPARED_H_
