#include "constraint/substitution.h"

namespace mmv {

TermVec Substitution::Apply(const TermVec& ts) const {
  TermVec out;
  out.reserve(ts.size());
  for (const Term& t : ts) out.push_back(Apply(t));
  return out;
}

Primitive Substitution::Apply(const Primitive& p) const {
  Primitive out = p;
  out.lhs = Apply(p.lhs);
  if (p.kind == PrimKind::kEq || p.kind == PrimKind::kNeq ||
      p.kind == PrimKind::kCmp) {
    out.rhs = Apply(p.rhs);
  }
  if (p.kind == PrimKind::kIn || p.kind == PrimKind::kNotIn) {
    out.call.args = Apply(p.call.args);
  }
  return out;
}

NotBlock Substitution::Apply(const NotBlock& b) const {
  NotBlock nb;
  nb.prims.reserve(b.prims.size());
  for (const Primitive& p : b.prims) nb.prims.push_back(Apply(p));
  nb.inner.reserve(b.inner.size());
  for (const NotBlock& i : b.inner) nb.inner.push_back(Apply(i));
  return nb;
}

Constraint Substitution::Apply(const Constraint& c) const {
  if (c.is_false()) return Constraint::False();
  Constraint out;
  for (const Primitive& p : c.prims()) out.Add(Apply(p));
  for (const NotBlock& b : c.nots()) out.AddNot(Apply(b));
  return out;
}

Substitution FreshRenaming(const std::vector<VarId>& vars,
                           VarFactory* factory) {
  Substitution s;
  for (VarId v : vars) {
    if (!s.Contains(v)) s.Bind(v, Term::Var(factory->Fresh()));
  }
  return s;
}

void RemapVarsAtOrAbove(VarId base, VarFactory* factory, TermVec* args,
                        Constraint* constraint, VarSet* scratch) {
  scratch->Clear();
  scratch->AddTerms(*args);
  constraint->CollectVariables(scratch);
  Substitution rename;
  for (VarId v : scratch->vars()) {
    if (v >= base) rename.Bind(v, Term::Var(factory->Fresh()));
  }
  if (rename.empty()) return;
  *args = rename.Apply(*args);
  *constraint = rename.Apply(*constraint);
}

}  // namespace mmv
