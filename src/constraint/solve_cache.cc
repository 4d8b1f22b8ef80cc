#include "constraint/solve_cache.h"

namespace mmv {

const SolveOutcome* SolveCache::Lookup(const CanonicalKey& key) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  return &it->second;
}

void SolveCache::Insert(const CanonicalKey& key, SolveOutcome outcome) {
  if (map_.size() >= max_entries_) {
    stats_.full++;
    return;
  }
  map_.emplace(key, outcome);
}

}  // namespace mmv
