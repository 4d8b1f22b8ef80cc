// Partition-count selection for intra-pass fan-out.
//
// A parallel fixpoint round shards the depth-0 candidate sequence of a
// (clause, pivot) pass — the seminaive pivot bucket — into contiguous
// ranges, one ThreadPool task each. The split must be deterministic (it
// feeds a byte-identity merge) and must never split or duplicate an entry,
// so both the shard count and the range arithmetic live here, where they
// are unit-tested directly.

#ifndef MMV_PLAN_PARTITION_H_
#define MMV_PLAN_PARTITION_H_

#include <algorithm>
#include <cstddef>
#include <utility>

namespace mmv {
namespace plan {

/// \brief Minimum depth-0 candidates per shard before a pivot pass is
/// worth splitting: below this, staging/merge bookkeeping outweighs the
/// join work a shard would carry. Passes under 2x this threshold run whole
/// (reported as partition_skipped_small).
constexpr size_t kMinPartitionItems = 64;

/// \brief Number of contiguous shards for \p items work units, at most
/// \p max_partitions, with at least kMinPartitionItems items per shard.
/// Returns 1 ("do not split") for sequential callers, empty inputs and
/// windows too small to amortize the fan-out. Deterministic in its
/// arguments only — never in thread scheduling — so a parallel round's
/// shard layout is a pure function of the frozen delta window.
inline int PartitionCountFor(size_t items, int max_partitions) {
  if (max_partitions <= 1) return 1;
  if (items < 2 * kMinPartitionItems) return 1;
  size_t by_items = items / kMinPartitionItems;
  size_t cap = static_cast<size_t>(max_partitions);
  return static_cast<int>(std::min(by_items, cap));
}

/// \brief Half-open item range [begin, end) of shard \p shard out of
/// \p partitions over \p items units. The ranges of shards 0..partitions-1
/// are contiguous, disjoint and cover [0, items) exactly — no entry is
/// split across shards or enumerated twice — with sizes differing by at
/// most one (leading shards take the remainder).
inline std::pair<size_t, size_t> PartitionRange(size_t items, int partitions,
                                                int shard) {
  size_t p = static_cast<size_t>(partitions < 1 ? 1 : partitions);
  size_t s = static_cast<size_t>(shard);
  size_t base = items / p;
  size_t rem = items % p;
  size_t begin = s * base + std::min(s, rem);
  size_t end = begin + base + (s < rem ? 1 : 0);
  return {begin, end};
}

}  // namespace plan
}  // namespace mmv

#endif  // MMV_PLAN_PARTITION_H_
