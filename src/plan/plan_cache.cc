#include "plan/plan_cache.h"

namespace mmv {
namespace plan {

void PlanCache::Revalidate(const Program& program) {
  if (have_program_ && program_id_ == program.id()) return;
  if (have_program_) stats_.invalidations++;
  plans_.clear();
  program_id_ = program.id();
  have_program_ = true;
}

std::shared_ptr<const ClausePlan> PlanCache::PlanFor(const Program& program,
                                                     const Clause& clause) {
  Revalidate(program);
  auto [it, inserted] = plans_.try_emplace(clause.number);
  if (!inserted) {
    stats_.cache_hits++;
    return it->second;
  }
  stats_.compiles++;
  ClausePlan plan = CompileClause(clause);
  if (plan.reordered) stats_.reorders++;
  it->second = std::make_shared<const ClausePlan>(std::move(plan));
  return it->second;
}

void PlanCache::Clear() {
  plans_.clear();
  have_program_ = false;
  program_id_ = 0;
}

}  // namespace plan
}  // namespace mmv
