#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// The highest of p99.9 / p99 / p95 / p90 that leaves at least ten samples
/// beyond it, or 0 when even p90 does not.
double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if (static_cast<double>(n) * (100 - p) / 100 >= 10) return p;
  }
  return 0;
}

std::string TailName(const std::string& base, double p,
                     const std::string& unit) {
  std::string digits = FormatNumber(p);
  digits.erase(std::remove(digits.begin(), digits.end(), '.'), digits.end());
  return base + "_p" + digits + "_" + unit;
}

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::vector<Metric> EndToEndMetrics(const RunResult& r) {
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"updates_per_s",
       Ratio(static_cast<double>(r.update_requests), r.writer_busy_s), "1/s"},
      {"queries_per_s", Ratio(static_cast<double>(r.queries), r.window_s),
       "1/s"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> ReportOnlyMetrics(const RunResult& r) {
  std::vector<Metric> out = {
      {"update_p50_ms", Percentile(r.update_ms.kept(), 50), "ms"},
      {"query_p50_us", Percentile(r.query_us.kept(), 50), "us"},
  };
  auto tail = [&](const std::string& base, const Samples& s,
                  const std::string& unit) {
    double p = TailPercentile(s.kept().size());
    if (p > 0) {
      out.push_back({TailName(base, p, unit), Percentile(s.kept(), p), unit});
    }
    out.push_back({base + "_samples", static_cast<double>(s.count()), "count"});
  };
  tail("update", r.update_ms, "ms");
  tail("query", r.query_us, "us");
  if (r.durable) {
    out.push_back({"recovery_s", Median(r.recovery_s), "s"});
    out.push_back({"bytes_written_per_update",
                   Ratio(static_cast<double>(r.fs.written()),
                         static_cast<double>(r.stats.input_updates)),
                   "B"});
  }
  out.push_back({"failed_ops_ratio",
                 Ratio(static_cast<double>(r.failed),
                       static_cast<double>(r.attempted)),
                 "1"});
  return out;
}

std::vector<Metric> LayerMetrics(const RunResult& traced,
                                 const RunResult& untraced) {
  std::map<std::string, SpanTotals> spans = traced.writer_trace.Totals();
  for (const auto& [name, t] : traced.reader_trace.Totals()) {
    SpanTotals& m = spans[name];
    m.count += t.count;
    m.total_ns += t.total_ns;
    m.self_ns += t.self_ns;
  }
  auto mean_us = [&](const std::string& name, bool self = false) {
    auto it = spans.find(name);
    if (it == spans.end() || it->second.count == 0) return 0.0;
    double ns = static_cast<double>(self ? it->second.self_ns
                                         : it->second.total_ns);
    return ns / static_cast<double>(it->second.count) * 1e-3;
  };
  const mmv::maint::BatchStats& s = traced.stats;
  const double bursts = static_cast<double>(traced.bursts);
  const double updates = static_cast<double>(s.input_updates);
  auto per_burst = [&](double v) { return Ratio(v, bursts); };
  const double ops = static_cast<double>(traced.bursts + traced.queries +
                                         traced.external_updates);
  const double update_p50_ms = Percentile(traced.update_ms.kept(), 50);
  const double query_p50_us = Percentile(traced.query_us.kept(), 50);

  return {
      {"parser.parse_us", mean_us("parser.parse"), "us"},
      {"batch.plan_us", mean_us("batch.plan"), "us"},
      {"batch.coalesced_ratio",
       Ratio(static_cast<double>(s.coalesced_away), updates), "1"},
      {"batch.apply_ms", mean_us("batch.apply", true) * 1e-3, "ms"},
      {"batch.delete_passes", per_burst(s.delete_passes), "count/burst"},
      {"batch.insert_passes", per_burst(s.insert_passes), "count/burst"},
      {"stdel.del_elements", per_burst(s.del_elements), "count/burst"},
      {"stdel.replacements", per_burst(s.replacements), "count/burst"},
      {"stdel.step3_replacements", per_burst(s.step3_replacements),
       "count/burst"},
      {"stdel.removed_unsolvable", per_burst(s.removed_unsolvable),
       "count/burst"},
      {"insert.add_atoms", per_burst(s.add_atoms), "count/burst"},
      {"insert.pass_atoms", per_burst(s.insertion_pass_atoms), "count/burst"},
      {"plan.cache_hits", per_burst(s.plan_cache_hits), "count/burst"},
      {"plan.reorders", per_burst(s.plan_reorders), "count/burst"},
      {"plan.probe_intersections", per_burst(s.probe_intersections),
       "count/burst"},
      {"fixpoint.partitions_run", per_burst(s.partitions_run), "count/burst"},
      {"fixpoint.partition_skipped_small",
       per_burst(s.partition_skipped_small), "count/burst"},
      {"fixpoint.evaluator_clones", per_burst(s.evaluator_clones),
       "count/burst"},
      {"solver.sat_prechecks", per_burst(s.sat_prechecks), "count/burst"},
      {"solver.sat_rejects", per_burst(s.sat_rejects), "count/burst"},
      {"solver.sat_reject_ratio",
       Ratio(static_cast<double>(s.sat_rejects),
             static_cast<double>(s.sat_prechecks)),
       "1"},
      {"solver.reject_cache_hits", per_burst(s.reject_cache_hits),
       "count/burst"},
      {"solver.solve_epoch_flushes", per_burst(s.solve_epoch_flushes),
       "count/burst"},
      {"solver.reject_epoch_flushes", per_burst(s.reject_epoch_flushes),
       "count/burst"},
      {"domain.calls_per_query",
       Ratio(static_cast<double>(traced.domain_calls_queries),
             static_cast<double>(traced.queries)),
       "count"},
      {"domain.calls_per_update",
       Ratio(static_cast<double>(traced.domain_calls_updates), updates),
       "count"},
      {"domain.eval_us",
       Ratio(static_cast<double>(traced.domain_busy_ns) * 1e-3, ops), "us"},
      {"domain.eval_share",
       Ratio(static_cast<double>(traced.domain_busy_ns),
             static_cast<double>(traced.op_busy_ns)),
       "1"},
      {"query.eval_us", mean_us("query.eval"), "us"},
      {"query.instances_per_query",
       Ratio(static_cast<double>(traced.query_instances),
             static_cast<double>(traced.queries)),
       "count"},
      {"snapshot.pin_us", mean_us("snapshot.pin"), "us"},
      {"snapshot.publish_us", mean_us("snapshot.publish"), "us"},
      {"snapshot.segments_shared", per_burst(s.snapshot_nodes_shared),
       "count/burst"},
      {"snapshot.segments_copied", per_burst(s.snapshot_nodes_copied),
       "count/burst"},
      {"durability.log_burst_us", mean_us("durability.log_burst"), "us"},
      {"durability.commit_us", mean_us("durability.commit"), "us"},
      {"durability.wal_bytes_per_update",
       Ratio(static_cast<double>(traced.fs.wal_bytes), updates), "B"},
      {"durability.checkpoints", per_burst(s.checkpoints_written),
       "count/burst"},
      {"durability.checkpoint_bytes_per_update",
       Ratio(static_cast<double>(traced.fs.checkpoint_bytes), updates), "B"},
      {"durability.fs_syncs", per_burst(traced.fs.syncs), "count/burst"},
      {"durability.fs_sync_us",
       Ratio(static_cast<double>(traced.fs.sync_ns) * 1e-3,
             static_cast<double>(traced.fs.syncs)),
       "us"},
      {"durability.recover_ms", mean_us("durability.recover") * 1e-3, "ms"},
      {"durability.recover_replayed_bursts",
       static_cast<double>(traced.recovery.replayed_bursts), "count"},
      {"durability.recover_chain_deltas",
       static_cast<double>(traced.recovery.delta_checkpoints_composed),
       "count"},
      {"durability.recover_read_bytes",
       static_cast<double>(traced.recover_read_bytes), "B"},
      {"relational.external_update_us", mean_us("relational.external_update"),
       "us"},
      {"trace.update_p50_ms", update_p50_ms, "ms"},
      {"trace.update_overhead_ms",
       update_p50_ms - Percentile(untraced.update_ms.kept(), 50), "ms"},
      {"trace.query_overhead_us",
       query_p50_us - Percentile(untraced.query_us.kept(), 50), "us"},
  };
}

std::string MedianBurstBreakdown(const RunResult& traced) {
  const std::vector<Span>& spans = traced.writer_trace.spans();
  std::vector<int64_t> self = traced.writer_trace.SelfTimes();
  // The update roots: bursts, or on mediator-reads the external updates.
  std::vector<size_t> roots;
  for (const char* root_name : {"burst", "external"}) {
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0 && std::string(spans[i].name) == root_name) {
        roots.push_back(i);
      }
    }
    if (!roots.empty()) break;
  }
  if (roots.empty()) return "";
  std::sort(roots.begin(), roots.end(), [&](size_t a, size_t b) {
    return spans[a].duration_ns() < spans[b].duration_ns();
  });
  const size_t root = roots[roots.size() / 2];
  // The update path's layers: self times of the root's descendants.
  std::map<std::string, int64_t> by_layer;
  for (size_t i = root + 1; i < spans.size(); ++i) {
    int p = spans[i].parent;
    while (p >= 0 && static_cast<size_t>(p) != root) {
      p = spans[static_cast<size_t>(p)].parent;
    }
    if (p < 0) {
      if (spans[i].start_ns > spans[root].end_ns) break;
      continue;
    }
    by_layer[spans[i].name] += self[i];
  }
  std::ostringstream os;
  os << "median " << spans[root].name << " #" << spans[root].op << " of "
     << roots.size() << ": "
     << FormatNumber(spans[root].duration_ns() * 1e-6) << " ms =";
  int64_t sum = 0;
  for (const auto& [name, ns] : by_layer) {
    os << " " << name << " " << FormatNumber(ns * 1e-6) << " +";
    sum += ns;
  }
  os << " unaccounted " << FormatNumber(self[root] * 1e-6) << " ms";
  sum += self[root];
  os << " (sum " << FormatNumber(sum * 1e-6) << " ms)";
  return os.str();
}

void PrintMetrics(std::ostream& os, const std::string& heading,
                  const std::vector<Metric>& metrics) {
  os << heading << "\n";
  for (const Metric& m : metrics) {
    os << "  " << m.name << " = " << FormatNumber(m.value) << " " << m.unit
       << "\n";
  }
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string JsonLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << FormatNumber(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
