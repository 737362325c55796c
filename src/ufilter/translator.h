// Update translation engine (the box below U-Filter in Fig. 5), plus the
// probe-query composition of Section 6.1. Translatable view updates become
// sequences of relational UpdateOps; conditionally translatable ones get
// their condition enforced here (translation minimization for deletes,
// duplication consistency for inserts).
#ifndef UFILTER_UFILTER_TRANSLATOR_H_
#define UFILTER_UFILTER_TRANSLATOR_H_

#include <optional>
#include <vector>

#include "asg/view_asg.h"
#include "common/result.h"
#include "relational/query.h"
#include "relational/sqlgen.h"
#include "ufilter/update_binding.h"
#include "view/analyzed_view.h"

namespace ufilter::check {

/// \brief Composes probe queries and translates bound updates.
class Translator {
 public:
  /// Every table *read* the translation performs (victim row fetches,
  /// minimization reference checks, duplication-consistency key probes)
  /// goes through `stores`: step 3 passes its statement's live stores for
  /// an apply, and its overlay for a check-only statement, so a later
  /// action translates against what the earlier ones wrote. A null
  /// `stores` means `ctx`'s tables as it resolves them (a snapshot-pinned
  /// context reads the pinned epoch), through fresh live stores per call.
  /// `ctx` also scopes the planning of the reference-check probes; null
  /// means the database's root context. Composing probes reads no table.
  Translator(relational::Database* db, const view::AnalyzedView* view,
             const asg::ViewAsg* gv,
             relational::ExecutionContext* ctx = nullptr,
             relational::TableStores* stores = nullptr)
      : db_(db), view_(view), gv_(gv),
        ctx_(ctx != nullptr ? ctx : db->root_context()),
        stores_(stores) {}

  /// Probe for the *context anchor* (does the element the update inserts
  /// into / deletes from exist in the view?). Composes the view query chain
  /// of the context element with the update's WHERE (the paper's PQ1/PQ2).
  /// Selects key columns plus any column referenced by the target's edge
  /// conditions. An update anchored at the root has an empty FROM list;
  /// callers treat that as trivially existing.
  Result<relational::SelectQuery> ComposeAnchorProbe(
      const BoundUpdate& update) const;

  /// Probe enumerating the victim instances of a delete (the context chain
  /// extended to the victim element's scope).
  Result<relational::SelectQuery> ComposeVictimProbe(
      const BoundUpdate& update) const;

  /// Wide probe used by the *internal* strategy: same FROM/WHERE as the
  /// anchor probe but selecting every view column of the chain, as required
  /// to build a complete relational-view tuple (Section 6.2.1).
  Result<relational::SelectQuery> ComposeWideProbe(
      const BoundUpdate& update) const;

  /// Translates a delete given the victim probe (query + result). With
  /// `minimize` (the conditional-translatability condition of Observation
  /// 1), shared tuples are reference-checked against the database and
  /// skipped when still referenced by other view content.
  Result<std::vector<relational::UpdateOp>> TranslateDelete(
      const BoundUpdate& update, const relational::SelectQuery& victim_query,
      const relational::QueryResult& victims, bool minimize);

  /// Translates an insert given the anchor probe (query + result). Fills FK
  /// columns from the anchor row and from the view's join conditions, and
  /// fills attributes pinned by the view's selection predicates so the
  /// inserted element actually appears in the view.
  Result<std::vector<relational::UpdateOp>> TranslateInsert(
      const BoundUpdate& update, const relational::SelectQuery& anchor_query,
      const relational::QueryResult& anchors);

  /// Checks the duplication-consistency condition (Observation 2) for the
  /// translated inserts: an insert whose key already exists is dropped when
  /// the existing tuple carries identical values (the duplicate is
  /// consistent), and rejected with DataConflict otherwise. `ops` is edited
  /// in place.
  /// The update's *own* element relation is strict: an existing key there is
  /// always a conflict (a view cannot show the same tuple twice).
  Status EnforceDuplicationConsistency(const BoundUpdate& update,
                                       std::vector<relational::UpdateOp>* ops);

 private:
  /// Scopes from the root to `element`'s scope, outermost first.
  std::vector<const view::Scope*> ScopeChain(
      const view::AvNode* element) const;

  Result<relational::SelectQuery> ComposeChainProbe(
      const BoundUpdate& update, const view::AvNode* element, bool wide,
      bool skip_outside_preds) const;

  Status CollectInsertOps(int node_id, const xml::Node& payload,
                          const std::map<std::string, Value>& anchor_values,
                          std::vector<relational::UpdateOp>* ops);

  /// Minimization reference check: true when `tuple` of `relation` is still
  /// used by some view instance other than the one keyed by
  /// (`excluded_rel`, `excluded_key_col` = `excluded_key_value`).
  Result<bool> TupleReferencedElsewhere(relational::TableStores& stores,
                                        const std::string& relation,
                                        const relational::Row& tuple,
                                        const std::string& excluded_rel,
                                        const std::string& excluded_key_col,
                                        const Value& excluded_key_value);

  /// The stores translation reads: the translator's own, else `live`,
  /// emplaced over `ctx_`.
  relational::TableStores& Stores(
      std::optional<relational::Database::LiveStores>* live);

  /// A value satisfying `value <op> literal` (used to pin attributes the
  /// payload omits but the view's selection predicates constrain).
  Value SatisfyingValue(CompareOp op, const Value& literal) const;

  relational::Database* db_;
  const view::AnalyzedView* view_;
  const asg::ViewAsg* gv_;
  relational::ExecutionContext* ctx_;
  relational::TableStores* stores_;
};

}  // namespace ufilter::check

#endif  // UFILTER_UFILTER_TRANSLATOR_H_
