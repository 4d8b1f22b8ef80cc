// Metrics derived from a RunResult, the human-readable report and the
// final JSON line.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief Linear-interpolated percentile \p p (0..100); 0 for no samples.
double Percentile(std::vector<double> v, double p);

/// \brief The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end"): setup_s, updates_per_s, queries_per_s, peak_rss_mb.
std::vector<Metric> EndToEndMetrics(const RunResult& r);

/// \brief Further end-to-end figures printed in the report where the
/// workload supports them: update_p50_ms, query_p50_us, the tail
/// percentiles that leave at least ten kept samples beyond them, the sample
/// counts, recovery_s, bytes_written_per_update and failed_ops_ratio.
std::vector<Metric> ReportOnlyMetrics(const RunResult& r);

/// \brief Per-layer metrics of a traced run (BENCHMARK.json "per_layer"),
/// with the tracing overhead measured against \p untraced.
std::vector<Metric> LayerMetrics(const RunResult& traced,
                                 const RunResult& untraced);

/// \brief The median traced update's path — for a burst: parse, apply
/// (self), log, commit, publish; for an external update: the source write
/// — and the unaccounted rest, which sum to its duration. Empty when the
/// run was not traced.
std::string MedianBurstBreakdown(const RunResult& traced);

/// \brief Writes "name = value unit" lines under a heading.
void PrintMetrics(std::ostream& os, const std::string& heading,
                  const std::vector<Metric>& metrics);

/// \brief The final line: {"correct", "attempted", "failed", "metrics"}.
std::string JsonLine(bool correct, int64_t attempted, int64_t failed,
                     const std::vector<Metric>& metrics);

/// \brief Shortest decimal form that reads back as \p v.
std::string FormatNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
