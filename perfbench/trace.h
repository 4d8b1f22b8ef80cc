// Span recorder of the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public functions and interfaces — never inside src/. A
// span has a name, a start and an end, the span that was open when it
// began (its parent), and the id of the burst or query it belongs to.
// Spans stay in memory and are written out when the run ends.
//
// One Tracer per thread: spans of one thread nest strictly, so a span's
// self time is its duration minus the durations of its direct children.
// A disabled Tracer records nothing and costs one branch per call.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// \brief Monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< a string literal
  int64_t op = 0;         ///< burst or query id
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief Count, total duration and total self time of the spans sharing
/// one name.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// \brief Opens a span under the innermost open one; returns its index,
  /// or -1 when disabled.
  int Begin(const char* name, int64_t op) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// \brief Closes span \p id, which must be the innermost open one.
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }

  /// \brief Records an already finished span [start, end] under span
  /// \p parent (used where the interval is bounded by two seams rather
  /// than by one call, e.g. from CommitBurst's return to ApplyBatch's).
  void Add(const char* name, int64_t op, int parent, int64_t start_ns,
           int64_t end_ns) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.op = op;
    s.parent = parent;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Self time of every span: its duration minus its children's.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].duration_ns();
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_ns();
    }
    return self;
  }

  /// \brief Per-name totals.
  std::map<std::string, SpanTotals> Totals() const {
    std::map<std::string, SpanTotals> out;
    std::vector<int64_t> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_ns += spans_[i].duration_ns();
      t.self_ns += self[i];
    }
    return out;
  }

  /// \brief Writes one tab-separated line per span:
  /// thread, index, parent, name, op, start_ns, end_ns, self_ns.
  void Write(std::ostream& os, const std::string& thread) const {
    std::vector<int64_t> self = SelfTimes();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << thread << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
         << s.op << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << self[i]
         << '\n';
    }
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t op)
      : tracer_(tracer), id_(tracer->Begin(name, op)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
