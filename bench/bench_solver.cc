// E8 — solver cost structure and the value of simplification (the paper's
// Example 5 remark: "in many cases the redundancy can be removed by
// simplification of the constraints").
//
// Measures (a) satisfiability cost vs literal count, (b) cost vs number of
// accumulated not-blocks (the shape repeated deletions produce), (c)
// constraint growth across repeated update cycles with and without
// simplification in the fixpoint engine, and (d) the solver work of one
// W_P mediator query, where the call memo decides the domain-call count.

#include "bench_util.h"

#include "constraint/simplify.h"
#include "workload/law_enforcement.h"

namespace mmv {
namespace bench {
namespace {

Term V(VarId v) { return Term::Var(v); }
Term C(int64_t c) { return Term::Const(Value(c)); }

void BM_Solver_ConjunctionScaling(benchmark::State& state) {
  // X0 = X1 = ... = Xn chained, all bound to one constant, plus interval
  // and disequality noise.
  int n = static_cast<int>(state.range(0));
  Constraint c;
  for (int i = 0; i + 1 < n; ++i) {
    c.Add(Primitive::Eq(V(i), V(i + 1)));
  }
  c.Add(Primitive::Eq(V(0), C(5)));
  for (int i = 0; i < n; ++i) {
    c.Add(Primitive::Cmp(V(i), CmpOp::kLe, C(100)));
    c.Add(Primitive::Neq(V(i), C(6)));
  }
  Solver solver(nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(c));
  }
  state.counters["literals"] = static_cast<double>(c.LiteralCount());
}

void BM_Solver_NotBlockScaling(benchmark::State& state) {
  // The post-deletion shape: an interval atom with k subtracted points.
  int k = static_cast<int>(state.range(0));
  Constraint c;
  c.Add(Primitive::Cmp(V(0), CmpOp::kGe, C(0)));
  c.Add(Primitive::Cmp(V(0), CmpOp::kLe, C(1000000)));
  for (int i = 0; i < k; ++i) {
    NotBlock b;
    b.prims.push_back(Primitive::Eq(V(0), C(i)));
    c.AddNot(b);
  }
  Solver solver(nullptr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(c));
  }
  state.counters["not_blocks"] = static_cast<double>(k);
}

void BM_Solver_DcaSplitScaling(benchmark::State& state) {
  // Chained domain calls forcing candidate splits: X in table, Y = 10 * X,
  // Y = target. Split fan-out = table size.
  World w = World::Make();
  int rows = static_cast<int>(state.range(0));
  (void)w.catalog->CreateTable(rel::Schema{"nums", {"n"}});
  for (int i = 0; i < rows; ++i) {
    (void)w.catalog->Insert("nums", {Value(i)});
  }
  Constraint c;
  c.Add(Primitive::In(V(1), DomainCall{"rel", "project",
                                       {C(0), C(0)}}));  // placeholder
  // Rebuild properly: project(nums, n).
  c = Constraint();
  c.Add(Primitive::In(
      V(1), DomainCall{"rel", "project",
                       {Term::Const(Value("nums")),
                        Term::Const(Value("n"))}}));
  c.Add(Primitive::In(V(0), DomainCall{"arith", "times", {V(1), C(10)}}));
  c.Add(Primitive::Eq(V(0), C(10 * (rows - 1))));  // only the last matches
  Solver solver(w.domains.get());
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(c));
  }
  state.counters["split_fanout"] = static_cast<double>(rows);
  state.counters["dca_evals"] =
      static_cast<double>(solver.stats().dca_evaluations);
}

void BM_ConstraintGrowth_DeleteCycles(benchmark::State& state) {
  // Repeated deletions accumulate not-blocks; simplification keeps the
  // canonical size in check. Reports total literals after k cycles.
  World w = World::Make();
  int cycles = static_cast<int>(state.range(0));
  Result<Program> p_r = parser::ParseProgram(R"(
    a(X) <- in(X, arith:between(0, 1000)).
    b(X) <- a(X).
    c(X) <- b(X).
  )");
  if (!p_r.ok()) std::abort();
  Program p = std::move(*p_r);

  size_t literals_after = 0;
  for (auto _ : state) {
    state.PauseTiming();
    View v = MustMaterialize(p, w.domains.get());
    state.ResumeTiming();
    for (int i = 0; i < cycles; ++i) {
      auto parsed = parser::ParseConstrainedAtom(
          "a(X) <- X = " + std::to_string(i) + ".", &p);
      maint::UpdateAtom req{parsed->pred, parsed->args, parsed->constraint};
      Status s = maint::DeleteStDel(p, &v, req, w.domains.get());
      if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    }
    literals_after = v.TotalLiterals();
  }
  state.counters["cycles"] = static_cast<double>(cycles);
  state.counters["literals_after"] = static_cast<double>(literals_after);
}

void BM_Simplify_Throughput(benchmark::State& state) {
  // Simplification of a redundant constraint of the Example 5 flavor.
  int n = static_cast<int>(state.range(0));
  Constraint c;
  for (int i = 0; i + 1 < n; ++i) c.Add(Primitive::Eq(V(i), V(i + 1)));
  c.Add(Primitive::Eq(V(n - 1), C(3)));
  for (int i = 0; i < n; ++i) c.Add(Primitive::Cmp(V(i), CmpOp::kLe, C(9)));
  TermVec head = {V(0)};
  for (auto _ : state) {
    SimplifiedAtom s = SimplifyAtom(head, c);
    benchmark::DoNotOptimize(s.constraint.LiteralCount());
  }
  state.counters["input_literals"] = static_cast<double>(c.LiteralCount());
}

void BM_Materialize_SimplifyOnOff(benchmark::State& state) {
  // Ablation: the fixpoint engine with and without per-derivation
  // simplification. Without it, constraints accumulate the full join
  // equality chains (Example 5's redundancy).
  World w = World::Make();
  Program p = workload::MakeChain(static_cast<int>(state.range(0)),
                                  static_cast<int>(state.range(1)));
  FixpointOptions opts;
  opts.simplify = state.range(2) != 0;
  View last;
  for (auto _ : state) {
    last = MustMaterialize(p, w.domains.get(), opts);
  }
  state.counters["simplify"] = static_cast<double>(state.range(2));
  state.counters["total_literals"] = static_cast<double>(last.TotalLiterals());
  state.counters["bytes"] = static_cast<double>(last.ApproxBytes());
}

void BM_MediatorQuery_Seenwith(benchmark::State& state) {
  // seenwith(corleone, Y) on the running example under W_P: the view keeps
  // the domain calls, so the query decides every one of them (Corollary
  // 1). Exports one query's solver counters: dca_evaluations is what the
  // call memo leaves of the calls the enumeration's Solves and Analyzes
  // make.
  workload::LawEnforcementOptions lopts;
  lopts.num_people = 10;
  lopts.num_photos = 6;
  lopts.faces_per_photo = 3;
  auto scenario = workload::MakeLawEnforcement(lopts);
  if (!scenario.ok()) std::abort();
  dom::DomainManager* domains = (*scenario)->domains.get();
  FixpointOptions fopts;
  fopts.op = OperatorKind::kWp;
  View view = MustMaterialize((*scenario)->mediator, domains, fopts);
  const TermVec pattern = {Term::Const(Value((*scenario)->target)),
                           Term::Var(0)};
  SolveStats one;
  size_t instances = 0;
  for (auto _ : state) {
    one = SolveStats();
    query::EnumerateOptions options;
    options.solve_stats = &one;
    Result<query::InstanceSet> answer =
        query::QueryPred(view, Symbol("seenwith"), pattern, domains, options);
    if (!answer.ok()) {
      state.SkipWithError(answer.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(answer);
    instances = answer->instances.size();
  }
  ExportCounters(state, one);
  state.counters["instances"] = static_cast<double>(instances);
}

BENCHMARK(BM_Materialize_SimplifyOnOff)
    ->Args({8, 8, 1})
    ->Args({8, 8, 0})
    ->Args({16, 16, 1})
    ->Args({16, 16, 0})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Solver_ConjunctionScaling)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Solver_NotBlockScaling)->Arg(1)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_Solver_DcaSplitScaling)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_ConstraintGrowth_DeleteCycles)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Simplify_Throughput)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_MediatorQuery_Seenwith)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace mmv
