// Maintenance under external changes (paper Section 4).
//
// When an integrated domain's behaviour changes (f_t -> f_{t+1}), a view
// materialized with T_P is stale: solvability was decided with f_t, so the
// view must be recomputed (or patched from the REM/ADD sets).
//
// A view materialized with W_P needs *no maintenance whatsoever*
// (Theorem 4): the syntactic form never changes, and its instances [M]
// evaluated at query time with the current function meanings coincide with
// the T_P view of the same time point (Corollary 1). MaintainedView wraps a
// view under either policy so benchmarks and examples can compare them.

#ifndef MMV_MAINTENANCE_EXTERNAL_H_
#define MMV_MAINTENANCE_EXTERNAL_H_

#include "core/fixpoint.h"
#include "domain/domain.h"

namespace mmv {
namespace maint {

/// \brief How a materialized view reacts to external domain changes.
enum class MaintenancePolicy : uint8_t {
  kTpRecompute,  ///< T_P semantics: rematerialize on every external change
  kWpSyntactic,  ///< W_P semantics: never touch the view (Theorem 4)
};

/// \brief A materialized mediated view plus its maintenance policy.
class MaintainedView {
 public:
  /// \brief Materializes the initial view under the policy's operator.
  static Result<MaintainedView> Create(const Program* program,
                                       dom::DomainManager* domains,
                                       MaintenancePolicy policy,
                                       FixpointOptions options = {});

  /// \brief Notifies the view that integrated domains changed.
  ///
  /// kTpRecompute rematerializes at the current clock tick; kWpSyntactic
  /// does nothing (and counts the no-op, for the E4 comparison).
  Status OnExternalChange();

  const View& view() const { return view_; }
  const Program& program() const { return *program_; }
  dom::DomainManager* domains() const { return domains_; }
  MaintenancePolicy policy() const { return policy_; }

  /// \brief Number of rematerializations performed so far.
  int64_t recompute_count() const { return recomputes_; }

  /// \brief Total derivations spent on maintenance (0 under W_P).
  int64_t maintenance_derivations() const { return maintenance_derivations_; }

 private:
  MaintainedView(const Program* program, dom::DomainManager* domains,
                 MaintenancePolicy policy, FixpointOptions options)
      : program_(program),
        domains_(domains),
        policy_(policy),
        options_(options) {}

  const Program* program_;
  dom::DomainManager* domains_;
  MaintenancePolicy policy_;
  FixpointOptions options_;
  View view_;
  int64_t recomputes_ = 0;
  int64_t maintenance_derivations_ = 0;
};

}  // namespace maint
}  // namespace mmv

#endif  // MMV_MAINTENANCE_EXTERNAL_H_
