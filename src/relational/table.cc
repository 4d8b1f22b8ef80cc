#include "relational/table.h"

#include <algorithm>
#include <mutex>

namespace mmv {
namespace rel {

void Table::Log(int64_t tick, bool is_insert, const Row& row) {
  if (log_.empty() || tick > last_logged_tick_) last_logged_tick_ = tick;
  log_.push_back(LogEntry{tick, is_insert, row});
}

void Table::IndexInsertedSlot(size_t slot) {
  std::unique_lock lock(index_mu_);
  for (auto& [col, idx] : indexes_) {
    idx.emplace(slots_[slot].row[static_cast<size_t>(col)].Hash(), slot);
  }
}

void Table::IndexDeletedSlot(size_t slot) {
  std::unique_lock lock(index_mu_);
  for (auto& [col, idx] : indexes_) {
    size_t h = slots_[slot].row[static_cast<size_t>(col)].Hash();
    auto [lo, hi] = idx.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == slot) {
        idx.erase(it);
        break;
      }
    }
  }
}

Status Table::Insert(Row row, int64_t tick) {
  if (row.size() != schema_.arity()) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   schema_.table_name);
  }
  Log(tick, true, row);
  slots_.push_back(Slot{std::move(row), false});
  live_count_++;
  IndexInsertedSlot(slots_.size() - 1);
  return Status::OK();
}

Status Table::Delete(const Row& row, int64_t tick) {
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.dead && s.row == row) {
      s.dead = true;
      live_count_--;
      Log(tick, false, row);
      IndexDeletedSlot(i);
      return Status::OK();
    }
  }
  return Status::NotFound("row not present in " + schema_.table_name + ": " +
                          RowToString(row));
}

Result<int64_t> Table::DeleteWhere(const std::string& column,
                                   const Value& value, int64_t tick) {
  int col = schema_.ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("no column " + column + " in " +
                            schema_.table_name);
  }
  int64_t removed = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    if (!s.dead && s.row[static_cast<size_t>(col)] == value) {
      s.dead = true;
      live_count_--;
      Log(tick, false, s.row);
      IndexDeletedSlot(i);
      removed++;
    }
  }
  return removed;
}

const std::unordered_multimap<size_t, size_t>& Table::IndexFor(
    int col) const {
  {
    std::shared_lock lock(index_mu_);
    auto it = indexes_.find(col);
    if (it != indexes_.end()) return it->second;
  }
  // Upgrade to exclusive for the lazy build; re-check because another
  // reader may have built the index between the two locks.
  std::unique_lock lock(index_mu_);
  auto it = indexes_.find(col);
  if (it != indexes_.end()) return it->second;
  auto& idx = indexes_[col];
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].dead) continue;
    idx.emplace(slots_[i].row[static_cast<size_t>(col)].Hash(), i);
  }
  return idx;
}

Result<std::vector<Row>> Table::SelectEq(const std::string& column,
                                         const Value& value) const {
  int col = schema_.ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("no column " + column + " in " +
                            schema_.table_name);
  }
  const auto& idx = IndexFor(col);
  std::vector<Row> out;
  auto [lo, hi] = idx.equal_range(value.Hash());
  for (auto it = lo; it != hi; ++it) {
    const Slot& s = slots_[it->second];
    if (!s.dead && s.row[static_cast<size_t>(col)] == value) {
      out.push_back(s.row);
    }
  }
  return out;
}

Result<std::vector<Row>> Table::SelectRange(const std::string& column,
                                            double lo, double hi) const {
  int col = schema_.ColumnIndex(column);
  if (col < 0) {
    return Status::NotFound("no column " + column + " in " +
                            schema_.table_name);
  }
  std::vector<Row> out;
  for (const Slot& s : slots_) {
    if (s.dead) continue;
    const Value& v = s.row[static_cast<size_t>(col)];
    if (v.is_numeric() && v.numeric() >= lo && v.numeric() <= hi) {
      out.push_back(s.row);
    }
  }
  return out;
}

std::vector<Row> Table::Scan() const {
  std::vector<Row> out;
  out.reserve(live_count_);
  for (const Slot& s : slots_) {
    if (!s.dead) out.push_back(s.row);
  }
  return out;
}

std::vector<Row> Table::RowsAt(int64_t t) const {
  // At or after every logged tick the replay below would apply the whole
  // log, and its result is the live rows in slot order: both keep
  // inserted rows in insertion order, and a delete removes the first live
  // row equal to the deleted one in both.
  if (log_.empty() || t >= last_logged_tick_) return Scan();
  // Replay the log up to and including tick t (multiset semantics).
  std::vector<Row> rows;
  for (const LogEntry& e : log_) {
    if (e.tick > t) break;  // log is tick-ordered (monotone clock)
    if (e.is_insert) {
      rows.push_back(e.row);
    } else {
      auto it = std::find(rows.begin(), rows.end(), e.row);
      if (it != rows.end()) rows.erase(it);
    }
  }
  return rows;
}

TableDiff Table::DiffBetween(int64_t t0, int64_t t1) const {
  // Multiset difference of the two states.
  std::vector<Row> before = RowsAt(t0);
  std::vector<Row> after = RowsAt(t1);
  TableDiff diff;
  std::vector<bool> matched(before.size(), false);
  for (const Row& r : after) {
    bool found = false;
    for (size_t i = 0; i < before.size(); ++i) {
      if (!matched[i] && before[i] == r) {
        matched[i] = true;
        found = true;
        break;
      }
    }
    if (!found) diff.added.push_back(r);
  }
  for (size_t i = 0; i < before.size(); ++i) {
    if (!matched[i]) diff.removed.push_back(before[i]);
  }
  return diff;
}

}  // namespace rel
}  // namespace mmv
