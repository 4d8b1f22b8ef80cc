// Unit tests for the counter registry (core/counters.h): the generated
// operator+= covers every declared counter, and each counter name carries
// one class across all the stats structs.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <type_traits>

#include "core/counters.h"
#include "core/fixpoint.h"
#include "maintenance/batch.h"
#include "maintenance/insert.h"
#include "maintenance/stdel.h"

namespace mmv {
namespace {

// The declared name without its nesting prefix ("unfold.sat_rejects" ->
// "sat_rejects").
std::string Leaf(const std::string& name) {
  size_t dot = name.rfind('.');
  return dot == std::string::npos ? name : name.substr(dot + 1);
}

// Fills every counter of a Stats with a distinct value through the
// visitor, then checks that a += a doubled each one: a counter the
// generated sum leaves out stays at its single value.
template <typename Stats>
void ExpectSumCoversEveryCounter() {
  Stats a;
  int64_t next = 1;
  a.ForEachCounter([&next](const CounterInfo&, auto& value) {
    value = static_cast<std::remove_reference_t<decltype(value)>>(next++);
  });
  ASSERT_GT(next, 1) << "no counters visited";
  a += a;
  std::set<std::string> names;
  next = 1;
  a.ForEachCounter([&](const CounterInfo& c, const auto& value) {
    EXPECT_EQ(static_cast<int64_t>(value), 2 * next) << c.name;
    EXPECT_TRUE(names.insert(c.name).second) << "visited twice: " << c.name;
    ++next;
  });
}

TEST(CountersTest, SumCoversEveryCounter) {
  ExpectSumCoversEveryCounter<SolveStats>();
  ExpectSumCoversEveryCounter<FixpointStats>();
  ExpectSumCoversEveryCounter<maint::StDelStats>();
  ExpectSumCoversEveryCounter<maint::InsertStats>();
  ExpectSumCoversEveryCounter<maint::BatchStats>();
}

TEST(CountersTest, SumOrsFlags) {
  FixpointStats a, b;
  b.truncated = true;
  a += b;
  EXPECT_TRUE(a.truncated);
  maint::InsertStats insert;
  insert.unfold += b;
  EXPECT_TRUE(insert.unfold.truncated);
}

// Every counter name of every table, by leaf name, with each class it was
// declared under.
std::map<std::string, std::set<CounterClass>> ClassesByName() {
  std::map<std::string, std::set<CounterClass>> classes;
  auto add = [&classes](const CounterInfo& c, const auto&) {
    classes[Leaf(c.name)].insert(c.cls);
  };
  SolveStats().ForEachCounter(add);
  FixpointStats().ForEachCounter(add);
  maint::StDelStats().ForEachCounter(add);
  maint::InsertStats().ForEachCounter(add);
  maint::BatchStats().ForEachCounter(add);
  return classes;
}

TEST(CountersTest, EachNameCarriesOneClass) {
  for (const auto& [name, classes] : ClassesByName()) {
    EXPECT_EQ(classes.size(), 1u) << name << " is declared in two classes";
  }
}

TEST(CountersTest, ClassesMatchTheModeComparisons) {
  std::map<std::string, std::set<CounterClass>> classes = ClassesByName();
  auto class_of = [&classes](const std::string& name) {
    auto it = classes.find(name);
    EXPECT_NE(it, classes.end()) << name << " is not declared";
    return it == classes.end() ? CounterClass::kStrategy
                               : *it->second.begin();
  };
  // The fan-out shape scales with the thread count.
  for (const char* name :
       {"partitions_run", "partition_skipped_small", "evaluator_clones"}) {
    EXPECT_EQ(class_of(name), CounterClass::kThread) << name;
  }
  // Every struct counter the mode comparator used to list by hand (under
  // its sidecar key then: added, updates, coalesced, step3) stays a work
  // product.
  for (const char* name :
       {"atoms_added", "insertion_pass_atoms", "input_updates",
        "coalesced_away", "replacements", "step3_replacements",
        "delete_passes", "insert_passes", "epochs_published", "wal_records",
        "wal_bytes", "wal_syncs", "snapshot_nodes_shared",
        "snapshot_nodes_copied", "checkpoint_delta_bytes"}) {
    EXPECT_EQ(class_of(name), CounterClass::kWork) << name;
  }
  // Compared on some axes only, so not work products.
  for (const char* name : {"unsat_pruned", "index_probes", "sat_rejects"}) {
    EXPECT_EQ(class_of(name), CounterClass::kStrategy) << name;
  }
}

}  // namespace
}  // namespace mmv
