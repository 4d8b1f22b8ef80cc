// Durable persistence workflow: materialize a mediated view over the text
// domain, open a DurableLog (burst WAL + checkpoints) over it, apply
// update bursts through maint::ApplyBatch with log-ahead-of-apply, crash
// the process mid-workload with the fault-injection filesystem, and then
// Recover() — the recovered view, external counter and snapshot epoch are
// exactly what the committed bursts produced.
//
// The example runs on MemFs + FaultFs so the "crash" is real (the write
// stream stops mid-operation) yet hermetic. A production embedding uses
// durability::PosixFs with a real directory instead — same API.

#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "domain/registry.h"
#include "durability/durable_log.h"
#include "durability/fs.h"
#include "maintenance/batch.h"
#include "parser/parser.h"
#include "query/enumerate.h"

using namespace mmv;

namespace {

void Show(const char* label, const View& view, DcaEvaluator* eval) {
  query::InstanceSet set = *query::EnumerateView(view, eval);
  std::cout << label << ":";
  for (const query::Instance& i : set.instances) {
    std::cout << " " << i.ToString();
  }
  std::cout << "\n";
}

}  // namespace

int main() {
  rel::Catalog catalog;
  dom::DomainManager domains(&catalog.clock());
  auto handles = dom::RegisterStandardDomains(&domains, &catalog);
  if (!handles.ok()) {
    std::cerr << handles.status() << "\n";
    return 1;
  }

  // A small document store, queried through the text domain.
  (void)handles->text->AddDocument("memo1", "the suspect was seen downtown");
  (void)handles->text->AddDocument("memo2", "routine patrol report");
  (void)handles->text->AddDocument("memo3", "suspect entered the building");

  Program program = *parser::ParseProgram(R"(
    mentions_suspect(D) <- in(D, text:match("suspect")).
    flagged(D) <- mentions_suspect(D).
  )");

  Result<View> v = Materialize(program, &domains);
  if (!v.ok()) {
    std::cerr << v.status() << "\n";
    return 1;
  }
  View view = std::move(*v);
  Show("initial view", view, &domains);

  // The durable session: every applied burst is WAL-logged before the
  // first maintenance pass, checkpointed every 2 bursts.
  durability::MemFs disk;
  durability::FaultPlan plan;
  plan.crash_after_writes = 10;  // the machine dies mid-workload...
  plan.tear_crashing_write = true;
  plan.tear_keep_bytes = 5;      // ...tearing the WAL append it was in
  durability::FaultFs faulty(&disk, plan);

  durability::DurabilityOptions opts;
  opts.checkpoint_every_records = 2;
  SnapshotStore snapshots;
  snapshots.Publish(view);  // epoch 1
  auto log = durability::DurableLog::Create(&faulty, "state", program, view,
                                            snapshots.epoch(),
                                            /*ext_counter=*/0, opts);
  if (!log.ok()) {
    std::cerr << log.status() << "\n";
    return 1;
  }

  auto atom = [&](const char* text) {
    auto a = *parser::ParseConstrainedAtom(text, &program);
    return maint::UpdateAtom{a.pred, a.args, a.constraint};
  };
  // Bursts 1 and 3 hold doubles that need more than 6 significant digits:
  // the checkpoint after burst 2 and the WAL record of burst 3 must carry
  // them exactly for Recover to rebuild the view.
  const std::vector<std::vector<maint::Update>> bursts = {
      {maint::Update::Insert(atom("reading(X) <- X = 1000000.25.")),
       maint::Update::Insert(atom("reading(X) <- X = 1000000.75."))},
      {maint::Update::Insert(atom("flagged(D) <- D = \"memo2\".")),
       maint::Update::Delete(atom("flagged(D) <- D = \"memo1\"."))},
      {maint::Update::Delete(atom("mentions_suspect(D) <- D = \"memo3\".")),
       maint::Update::Delete(atom("reading(X) <- X = 1000000.75."))},
      {maint::Update::Insert(atom("flagged(D) <- D = \"memo1\"."))},
  };

  size_t committed = 0;
  for (const std::vector<maint::Update>& burst : bursts) {
    maint::BatchStats stats;
    Status s = maint::ApplyBatch(program, &view, burst, &domains, {}, &stats,
                                 (*log)->ext_counter(), &snapshots,
                                 log->get());
    if (!s.ok()) {
      std::cout << "\n*** crash during burst " << (committed + 1) << ": "
                << s.message() << "\n";
      break;
    }
    ++committed;
    std::cout << "burst " << committed << " committed (epoch "
              << snapshots.epoch() << ", " << stats.wal_bytes
              << " WAL bytes, " << stats.checkpoints_written
              << " checkpoint)\n";
  }
  Show("live view at the crash", view, &domains);

  // "Restart": recover from the surviving disk image. Replay runs the
  // committed WAL tail through the real ApplyBatch pipeline on top of the
  // newest valid checkpoint.
  SnapshotStore recovered_snapshots;
  durability::RecoveryInfo info;
  auto recovered = durability::DurableLog::Recover(
      &disk, "state", &program, &domains, {}, &recovered_snapshots, &info,
      opts);
  if (!recovered.ok()) {
    std::cerr << recovered.status() << "\n";
    return 1;
  }
  View after = (*recovered)->TakeRecoveredView();
  std::cout << "\nrecovered: checkpoint epoch " << info.checkpoint_epoch
            << ", replayed " << info.replayed_bursts
            << " burst(s), truncated " << info.torn_tail_bytes
            << " torn byte(s), epoch " << info.recovered_epoch << "\n";
  Show("recovered view", after, &domains);

  // The recovered state is exactly the committed prefix: same instances,
  // same snapshot epoch as the pre-crash store had published.
  auto committed_epoch = 1 + committed;
  if (recovered_snapshots.epoch() != committed_epoch) {
    std::cerr << "recovered epoch " << recovered_snapshots.epoch()
              << " != committed epoch " << committed_epoch << "\n";
    return 1;
  }
  std::set<std::string> live_instances, rec_instances;
  query::InstanceSet live = *query::EnumerateView(view, &domains);
  query::InstanceSet rec = *query::EnumerateView(after, &domains);
  for (const query::Instance& i : live.instances) {
    live_instances.insert(i.ToString());
  }
  for (const query::Instance& i : rec.instances) {
    rec_instances.insert(i.ToString());
  }
  if (live_instances != rec_instances) {
    std::cerr << "recovered view diverged from the pre-crash live view\n";
    return 1;
  }
  std::cout << "\nrecovered state matches the committed prefix; maintenance "
               "continues from epoch "
            << (*recovered)->epoch() << ".\n";

  // And the durable session keeps going: the burst the crash interrupted
  // is simply re-applied on the recovered timeline.
  Status s = maint::ApplyBatch(program, &after, bursts[committed], &domains,
                               {}, nullptr, (*recovered)->ext_counter(),
                               &recovered_snapshots, recovered->get());
  if (!s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  Show("after re-applying the interrupted burst", after, &domains);
  return 0;
}
