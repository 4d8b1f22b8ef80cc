// Versioned in-memory table.
//
// Every mutation is stamped with the catalog clock tick, and the full
// mutation log is retained, so the engine can answer
//   - current-state queries (select_eq / select_range / scan),
//   - as-of queries RowsAt(t)  — the paper's f_t, and
//   - diffs DiffBetween(t, t') — the paper's f+ and f- (eqs. 6, 7).

#ifndef MMV_RELATIONAL_TABLE_H_
#define MMV_RELATIONAL_TABLE_H_

#include <cstdint>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "relational/row.h"

namespace mmv {
namespace rel {

/// \brief Added/removed rows between two ticks.
struct TableDiff {
  std::vector<Row> added;
  std::vector<Row> removed;
};

/// \brief A logged mutation.
struct LogEntry {
  int64_t tick;
  bool is_insert;  // false == delete
  Row row;
};

/// \brief Append-log versioned table with per-column hash indexes.
///
/// An index is built lazily on the first SelectEq over its column and then
/// maintained incrementally: Insert appends one entry per materialized
/// index, Delete/DeleteWhere erase the dead slot's entries. Mutations never
/// drop the indexes wholesale.
///
/// Concurrency: the READ path (SelectEq/SelectRange/Scan/RowsAt/Diff) is
/// safe to call from multiple threads while no mutator runs — the one
/// hidden write, the lazy index build inside a const SelectEq, is guarded
/// by an RW lock so two first-readers of a column cannot race. Mutators
/// are NOT safe against concurrent readers (rows and the log are
/// unguarded by design); parallel evaluation passes enforce that window
/// externally via DomainManager::StateEpoch.
class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }

  /// \brief Inserts \p row at \p tick. Duplicate rows are allowed
  /// (multiset semantics, matching the paper's duplicate semantics).
  Status Insert(Row row, int64_t tick);

  /// \brief Deletes one occurrence of \p row at \p tick; NotFound if absent.
  Status Delete(const Row& row, int64_t tick);

  /// \brief Deletes every current row with \p value in \p column;
  /// returns the number removed.
  Result<int64_t> DeleteWhere(const std::string& column, const Value& value,
                              int64_t tick);

  /// \brief Current rows with row[column] == value (hash-indexed).
  Result<std::vector<Row>> SelectEq(const std::string& column,
                                    const Value& value) const;

  /// \brief Current rows with lo <= row[column] <= hi (numeric).
  Result<std::vector<Row>> SelectRange(const std::string& column, double lo,
                                       double hi) const;

  /// \brief All current rows.
  std::vector<Row> Scan() const;

  /// \brief Rows as of tick \p t: the paper's f_t. Replayed from the log,
  /// except at or after the last logged tick, where the live rows are
  /// that replay (same rows, same order) and are returned directly.
  std::vector<Row> RowsAt(int64_t t) const;

  /// \brief f+ / f- between ticks \p t0 and \p t1 (t0 <= t1).
  TableDiff DiffBetween(int64_t t0, int64_t t1) const;

  /// \brief Number of live rows.
  size_t size() const { return live_count_; }

  /// \brief Number of log entries retained.
  size_t log_size() const { return log_.size(); }

 private:
  struct Slot {
    Row row;
    bool dead = false;
  };

  void Log(int64_t tick, bool is_insert, const Row& row);
  void IndexInsertedSlot(size_t slot);
  void IndexDeletedSlot(size_t slot);
  const std::unordered_multimap<size_t, size_t>& IndexFor(int col) const;

  Schema schema_;
  std::vector<Slot> slots_;
  size_t live_count_ = 0;
  std::vector<LogEntry> log_;
  int64_t last_logged_tick_ = 0;  ///< max tick in log_ (0 while empty)
  // column -> (value hash -> slot idx); collisions re-checked with ==.
  // Guarded by index_mu_: shared for lookups, exclusive for the lazy
  // build and the mutators' incremental maintenance. A returned inner
  // multimap reference stays valid (and immutable) across other columns'
  // builds — unordered_map never invalidates references on insert — so
  // readers may keep using it after dropping the lock.
  mutable std::unordered_map<int, std::unordered_multimap<size_t, size_t>>
      indexes_;
  mutable std::shared_mutex index_mu_;
};

}  // namespace rel
}  // namespace mmv

#endif  // MMV_RELATIONAL_TABLE_H_
