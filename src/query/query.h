// Pattern queries over materialized mediated views.

#ifndef MMV_QUERY_QUERY_H_
#define MMV_QUERY_QUERY_H_

#include "query/enumerate.h"

namespace mmv {
namespace query {

/// \brief Instances of \p pred in \p view matching \p pattern.
///
/// Constant positions of the pattern filter; variable positions are
/// wildcards (a repeated pattern variable forces equal values). Evaluation
/// uses the evaluator's current time — so a W_P view answers with
/// up-to-date external data with no maintenance having run (Corollary 1).
///
/// Cost: O(candidates), not O(atoms of pred). The read probes the view's
/// argument index (View::Probe) with the pattern's constants, skips atoms
/// whose constant arguments differ from them before copying anything, and
/// enumerates the rest in ascending atom order — so instances, the
/// max_instances cut and the complete / approximate flags are those of a
/// scan over every atom of \p pred. A pattern with no constant visits
/// every atom of \p pred.
Result<InstanceSet> QueryPred(const View& view, Symbol pred,
                              const TermVec& pattern,
                              DcaEvaluator* evaluator,
                              const EnumerateOptions& options = {});

/// \brief QueryPred against a pinned snapshot (core/snapshot.h) — the
/// epoch-consistent read path, safe while maintenance runs on the live
/// view.
Result<InstanceSet> QueryPred(const SnapshotHandle& snapshot, Symbol pred,
                              const TermVec& pattern,
                              DcaEvaluator* evaluator,
                              const EnumerateOptions& options = {});

/// \brief True iff pred(values) is an instance of the view.
///
/// Probes like QueryPred and stops at the first atom with an instance, so
/// an evaluation error that only a later candidate would raise is not
/// reported.
Result<bool> Ask(const View& view, Symbol pred,
                 const std::vector<Value>& values, DcaEvaluator* evaluator,
                 const EnumerateOptions& options = {});

/// \brief Ask against a pinned snapshot.
Result<bool> Ask(const SnapshotHandle& snapshot, Symbol pred,
                 const std::vector<Value>& values, DcaEvaluator* evaluator,
                 const EnumerateOptions& options = {});

}  // namespace query
}  // namespace mmv

#endif  // MMV_QUERY_QUERY_H_
