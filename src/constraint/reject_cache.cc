#include "constraint/reject_cache.h"

namespace mmv {

namespace {
uint64_t PairKey(uint32_t value_id, uint32_t call_id) {
  return (static_cast<uint64_t>(value_id) << 32) | call_id;
}
}  // namespace

void RejectCache::Record(const Value& value, const DcaCallKey& call,
                         bool member) {
  if (pairs_.size() >= max_entries_) {
    // Only genuinely NEW pairs are capacity-limited; a re-record of an
    // existing pair is the common case on hot loops and stays a no-op.
    auto vit = value_ids_.find(value);
    auto cit = call_ids_.find(call);
    if (vit == value_ids_.end() || cit == call_ids_.end() ||
        pairs_.find(PairKey(vit->second, cit->second)) == pairs_.end()) {
      stats_.full++;
    }
    return;
  }
  // Probe before emplacing: emplace builds (copies) the key even when it
  // is already interned, and re-records are the common case.
  auto vit = value_ids_.find(value);
  if (vit == value_ids_.end()) {
    vit = value_ids_.emplace(value, static_cast<uint32_t>(value_ids_.size()))
              .first;
  }
  auto cit = call_ids_.find(call);
  if (cit == call_ids_.end()) {
    cit = call_ids_.emplace(call, static_cast<uint32_t>(call_ids_.size()))
              .first;
  }
  const uint32_t value_id = vit->second;
  const uint32_t call_id = cit->second;
  if (pairs_.emplace(PairKey(value_id, call_id), member).second) {
    stats_.records++;
  }
}

const bool* RejectCache::Lookup(const Value& value,
                                const DcaCallKey& call) {
  auto vit = value_ids_.find(value);
  if (vit == value_ids_.end()) {
    stats_.misses++;
    return nullptr;
  }
  auto cit = call_ids_.find(call);
  if (cit == call_ids_.end()) {
    stats_.misses++;
    return nullptr;
  }
  auto pit = pairs_.find(PairKey(vit->second, cit->second));
  if (pit == pairs_.end()) {
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  return &pit->second;
}

void RejectCache::Clear() {
  value_ids_.clear();
  call_ids_.clear();
  pairs_.clear();
}

bool RejectCache::SyncEpoch(uint64_t source, int64_t epoch) {
  if (has_epoch_ && source_ == source && epoch_ == epoch) return false;
  // Mirrors SolveCache::SyncEpoch: an untagged memo may hold records from
  // runs that never sync, possibly computed against an older external
  // state — drop those too rather than serve a stale membership.
  bool flushed = !pairs_.empty();
  if (flushed) {
    Clear();
    stats_.epoch_flushes++;
  }
  has_epoch_ = true;
  source_ = source;
  epoch_ = epoch;
  return flushed;
}

}  // namespace mmv
