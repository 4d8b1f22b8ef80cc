#include "maintenance/external.h"

namespace mmv {
namespace maint {

Result<MaintainedView> MaintainedView::Create(const Program* program,
                                              dom::DomainManager* domains,
                                              MaintenancePolicy policy,
                                              FixpointOptions options) {
  options.op = policy == MaintenancePolicy::kWpSyntactic ? OperatorKind::kWp
                                                         : OperatorKind::kTp;
  MaintainedView mv(program, domains, policy, options);
  FixpointStats stats;
  MMV_ASSIGN_OR_RETURN(mv.view_,
                       Materialize(*program, domains, options, &stats));
  return mv;
}

Status MaintainedView::OnExternalChange() {
  if (policy_ == MaintenancePolicy::kWpSyntactic) {
    // Theorem 4: M_{t+1} is syntactically identical to M_t. Nothing to do.
    return Status::OK();
  }
  FixpointStats stats;
  MMV_ASSIGN_OR_RETURN(view_,
                       Materialize(*program_, domains_, options_, &stats));
  recomputes_++;
  maintenance_derivations_ += stats.derivations_attempted;
  return Status::OK();
}

}  // namespace maint
}  // namespace mmv
