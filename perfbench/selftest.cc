// The benchmark's own tests:
//
//   - each oracle accepts a correct answer and rejects a deliberately
//     corrupted one;
//   - latency samples stay within their fixed capacity;
//   - a traced and an untraced run of the same seed and operation count
//     produce identical work-product counters, which shows that the seam
//     wrappers and spans change nothing the library does.
//
// Run with: python3 perfbench/run.py --selftest

#include <cmath>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "core/fixpoint.h"
#include "domain/registry.h"
#include "maintenance/batch.h"
#include "parser/view_io.h"
#include "query/query.h"
#include "report.h"
#include "workload/generators.h"
#include "workload/law_enforcement.h"
#include "workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& test, const std::string& detail) {
  std::cout << (ok ? "PASS " : "FAIL ") << test;
  if (!ok) {
    std::cout << ": " << detail;
    ++failures;
  }
  std::cout << "\n";
}

void ExpectOk(const mmv::Status& s, const std::string& test) {
  Expect(s.ok(), test, s.ToString());
}

void ExpectMismatch(const mmv::Status& s, const std::string& test) {
  Expect(!s.ok(), test, "the oracle accepted a corrupted answer");
}

struct World {
  mmv::rel::Catalog catalog;
  mmv::dom::DomainManager domains{&catalog.clock()};
  World() {
    if (!mmv::dom::RegisterStandardDomains(&domains, &catalog).ok()) {
      std::abort();
    }
  }
};

mmv::maint::Update DeleteFact(mmv::Program* program, const std::string& text) {
  auto parsed = mmv::parser::ParseBurst(text, program);
  if (!parsed.ok() || parsed->size() != 1) std::abort();
  mmv::parser::ParsedUpdate& u = (*parsed)[0];
  return mmv::maint::Update::Delete(mmv::maint::UpdateAtom{
      u.atom.pred, u.atom.args, u.atom.constraint});
}

void TestChainOracle() {
  World w;
  mmv::Program program = mmv::workload::MakeGuardedMultiChain(2, 2, 8);
  auto view = mmv::Materialize(program, &w.domains);
  if (!view.ok()) std::abort();
  std::vector<std::set<int64_t>> live(2);
  for (int64_t i = 0; i < 8; ++i) live[0].insert(i), live[1].insert(i);
  ExpectOk(CheckChainLevels(*view, &w.domains, 2, live),
           "chain oracle accepts the materialized view");

  std::vector<std::set<int64_t>> wrong = live;
  wrong[1].insert(42);
  ExpectMismatch(CheckChainLevels(*view, &w.domains, 2, wrong),
                 "chain oracle rejects a missing id");

  // Delete a fact behind the model's back: every level of chain 0 loses 3.
  mmv::Status s = mmv::maint::ApplyBatch(
      program, &*view, {DeleteFact(&program, "del c0_p0(X) <- X = 3.\n")},
      &w.domains);
  ExpectOk(s, "chain corruption burst applies");
  ExpectMismatch(CheckChainLevels(*view, &w.domains, 2, live),
                 "chain oracle rejects a view that lost an id");
  live[0].erase(3);
  ExpectOk(CheckChainLevels(*view, &w.domains, 2, live),
           "chain oracle accepts the view once the model agrees");
}

void TestClosureOracle() {
  using Edge = std::pair<int64_t, int64_t>;
  std::set<Edge> edges = {{0, 1}, {1, 2}, {2, 3}, {5, 6}};
  std::set<Edge> closure = Closure(edges);
  std::set<Edge> expected = {{0, 1}, {0, 2}, {0, 3}, {1, 2},
                             {1, 3}, {2, 3}, {5, 6}};
  Expect(closure == expected, "BFS closure of a small graph",
         std::to_string(closure.size()) + " pairs");

  World w;
  mmv::Program program =
      mmv::workload::MakeTransitiveClosure({{0, 1}, {1, 2}, {2, 3}, {5, 6}});
  auto view = mmv::Materialize(program, &w.domains);
  if (!view.ok()) std::abort();
  ExpectOk(CheckClosure(*view, &w.domains, edges),
           "closure oracle accepts the materialized view");
  std::set<Edge> missing_edge = edges;
  missing_edge.erase({1, 2});
  ExpectMismatch(CheckClosure(*view, &w.domains, missing_edge),
                 "closure oracle rejects extra paths");
  std::set<Edge> extra_edge = edges;
  extra_edge.insert({3, 5});
  ExpectMismatch(CheckClosure(*view, &w.domains, extra_edge),
                 "closure oracle rejects missing paths");
}

void TestMediatorOracle() {
  mmv::workload::LawEnforcementOptions options;
  options.num_people = 10;
  options.num_photos = 6;
  options.faces_per_photo = 3;
  auto scenario = mmv::workload::MakeLawEnforcement(options);
  if (!scenario.ok()) std::abort();
  mmv::workload::LawEnforcementScenario& s = **scenario;
  mmv::FixpointOptions fopts;
  fopts.op = mmv::OperatorKind::kWp;
  auto view = mmv::Materialize(s.mediator, s.domains.get(), fopts);
  if (!view.ok()) std::abort();

  MediatorTruth truth;
  truth.people = s.people;
  truth.near_dc = s.near_dc;
  truth.employees = s.employees;
  truth.photos.resize(6);
  auto table = static_cast<const mmv::rel::Catalog*>(s.catalog.get())
                   ->GetTable("faces_surveillance");
  if (!table.ok()) std::abort();
  for (const mmv::rel::Row& row : (*table)->Scan()) {
    truth.photos[std::stoul(row[1].as_string().substr(5))].insert(
        static_cast<int>(row[2].as_int()));
  }
  Expect(truth.Answer("seenwith", s.target) == s.expected_seenwith &&
             truth.Answer("suspect", s.target) == s.expected_suspects,
         "mediator truth agrees with the scenario's own ground truth",
         "different answers for the target");

  for (const char* pred : {"seenwith", "swlndc", "suspect"}) {
    auto answer = mmv::query::QueryPred(
        *view, pred, {mmv::Term::Const(mmv::Value(s.target)),
                      mmv::Term::Var(0)},
        s.domains.get());
    if (!answer.ok()) std::abort();
    ExpectOk(CheckMediatorAnswer(truth, pred, s.target, *answer),
             std::string("mediator oracle accepts ") + pred);
    mmv::query::InstanceSet bogus = *answer;
    bogus.instances.insert(mmv::query::Instance{
        pred, {mmv::Value(s.target), mmv::Value("nobody")}});
    ExpectMismatch(CheckMediatorAnswer(truth, pred, s.target, bogus),
                   std::string("mediator oracle rejects an extra ") + pred);
    if (!answer->instances.empty()) {
      mmv::query::InstanceSet short_answer = *answer;
      short_answer.instances.erase(short_answer.instances.begin());
      ExpectMismatch(CheckMediatorAnswer(truth, pred, s.target, short_answer),
                     std::string("mediator oracle rejects a missing ") + pred);
    }
  }
  // An exoneration the view never saw.
  auto seen = truth.Answer("seenwith", s.target);
  if (!seen.empty()) {
    auto answer = mmv::query::QueryPred(
        *view, "seenwith",
        {mmv::Term::Const(mmv::Value(s.target)), mmv::Term::Var(0)},
        s.domains.get());
    truth.exonerated.insert({s.target, *seen.begin()});
    ExpectMismatch(CheckMediatorAnswer(truth, "seenwith", s.target, *answer),
                   "mediator oracle rejects an unapplied exoneration");
  }
}

void TestImageOracle() {
  ExpectOk(CheckSameImage("p(X) <- X = 1\n", "p(X) <- X = 1\n"),
           "image oracle accepts identical images");
  ExpectMismatch(CheckSameImage("p(X) <- X = 1\n", "p(X) <- X = 2\n"),
                 "image oracle rejects a changed byte");
  ExpectMismatch(CheckSameImage("p(X) <- X = 1\n", ""),
                 "image oracle rejects a truncated image");
}

void TestTransparency(const std::string& workload, int64_t ops,
                      const std::string& state_root) {
  RunConfig config;
  config.workload = workload;
  config.seed = 7;
  config.max_ops = ops;
  config.state_root = state_root;
  RunResult plain = RunWorkload(config);
  config.trace = true;
  RunResult traced = RunWorkload(config);
  std::map<std::string, int64_t> a = WorkProducts(plain);
  std::map<std::string, int64_t> b = WorkProducts(traced);
  if (workload != "chain-churn") {
    // Single-threaded query paths: the answers and the domain calls made
    // for them repeat exactly too. (The chain-churn reader runs for as
    // long as the writer does, so its query count is timing-dependent.)
    for (auto* m : {&a, &b}) {
      const RunResult& r = m == &a ? plain : traced;
      (*m)["queries"] = r.queries;
      (*m)["query_instances"] = r.query_instances;
      (*m)["domain_calls_queries"] = r.domain_calls_queries;
      (*m)["domain_calls_updates"] = r.domain_calls_updates;
      (*m)["external_updates"] = r.external_updates;
    }
  }
  std::string diff;
  for (const auto& [name, value] : a) {
    if (b[name] != value) {
      diff += " " + name + " " + std::to_string(value) + " vs " +
              std::to_string(b[name]);
    }
  }
  Expect(diff.empty() && plain.attempted > 0,
         workload + ": traced and untraced work products are identical",
         diff.empty() ? "nothing ran" : diff);
  Expect(!traced.writer_trace.spans().empty() &&
             plain.writer_trace.spans().empty(),
         workload + ": only the traced run records spans",
         "unexpected span counts");
  if (workload == "chain-churn") {
    Expect(a["wal_bytes"] > 0 && a["checkpoints_written"] > 0 &&
               a["fs_wal_bytes"] > 0,
           "chain-churn: WAL bytes and checkpoints were counted",
           "zero durability counters");
  }
}

void TestReport() {
  Expect(Percentile({1, 2, 3, 4}, 50) == 2.5 && Percentile({5}, 99) == 5,
         "percentile interpolates", "wrong percentile");
  std::string line = JsonLine(true, 3, 0, {{"a_ms", 1.5, "ms"}});
  Expect(line == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "JSON line format", line);
  // Latency samples keep a fixed number of values however many are added.
  Samples samples;
  const size_t capacity = samples.kept().capacity();
  const int64_t n = 3 * static_cast<int64_t>(Samples::kCapacity);
  for (int64_t i = 0; i < n; ++i) samples.Add(static_cast<double>(i % 100));
  Expect(samples.count() == n && samples.kept().size() == Samples::kCapacity &&
             samples.kept().capacity() == capacity &&
             std::abs(Percentile(samples.kept(), 50) - 49.5) <= 1,
         "latency samples have fixed capacity and keep the median",
         "count " + std::to_string(samples.count()) + ", kept " +
             std::to_string(samples.kept().size()) + ", median " +
             std::to_string(Percentile(samples.kept(), 50)));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string state_root = argc > 1 ? argv[1] : ".bench_build/selftest-state";
  perfbench::TestReport();
  perfbench::TestChainOracle();
  perfbench::TestClosureOracle();
  perfbench::TestMediatorOracle();
  perfbench::TestImageOracle();
  perfbench::TestTransparency("chain-churn", 40, state_root);
  perfbench::TestTransparency("tc-recursive", 30, state_root);
  perfbench::TestTransparency("mediator-reads", 120, state_root);
  perfbench::TestTransparency("mediator-session", 120, state_root);
  std::filesystem::remove_all(state_root);
  std::cout << (perfbench::failures == 0 ? "all self tests passed"
                                         : "self tests FAILED")
            << "\n";
  return perfbench::failures == 0 ? 0 : 1;
}
