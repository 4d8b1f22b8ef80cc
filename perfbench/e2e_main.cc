// End-to-end mediator benchmark: the command-line entry point.
//
//   mmv_e2e --workload <chain-churn|tc-recursive|mediator-reads|
//                       mediator-session>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--state-root <dir>] [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics for --seconds. --trace 1 runs
// the workload twice on the same seed, untraced then traced, for half of
// --seconds each, and reports the per-layer metrics of the traced run and
// the tracing overhead against the untraced one. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is 0 only when every oracle passed and no operation
// failed.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

void Usage() {
  std::cerr << "usage: mmv_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--state-root <dir>] [--trace-out <file>]\n";
}

void PrintRun(const perfbench::RunResult& r, const std::string& label) {
  std::cout << "== " << r.workload << " (" << label << ")\n";
  for (const std::string& note : r.notes) {
    std::cout << "  setting " << note << "\n";
  }
  perfbench::PrintMetrics(std::cout, "end-to-end:",
                          perfbench::EndToEndMetrics(r));
  perfbench::PrintMetrics(std::cout, "also:",
                          perfbench::ReportOnlyMetrics(r));
  std::cout << "  bursts " << r.bursts << ", queries " << r.queries
            << ", external updates " << r.external_updates << ", window "
            << perfbench::FormatNumber(r.window_s) << " s\n";
  for (const std::string& e : r.errors) std::cout << "  ERROR " << e << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool trace = false;
  std::string trace_out;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value == "1";
      } else if (flag == "--state-root") {
        config.state_root = value;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        Usage();
        return 2;
      }
    } catch (const std::exception&) {
      Usage();
      return 2;
    }
  }
  if (!have_workload || config.seconds <= 0) {
    Usage();
    return 2;
  }

  std::vector<perfbench::Metric> metrics;
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  if (!trace) {
    perfbench::RunResult r = perfbench::RunWorkload(config);
    PrintRun(r, "untraced");
    metrics = perfbench::EndToEndMetrics(r);
    correct = r.correct();
    attempted = r.attempted;
    failed = r.failed;
  } else {
    config.seconds /= 2;
    perfbench::RunResult plain = perfbench::RunWorkload(config);
    PrintRun(plain, "untraced half");
    config.trace = true;
    perfbench::RunResult traced = perfbench::RunWorkload(config);
    PrintRun(traced, "traced half");
    metrics = perfbench::LayerMetrics(traced, plain);
    perfbench::PrintMetrics(std::cout, "per-layer (traced):", metrics);
    std::string breakdown = perfbench::MedianBurstBreakdown(traced);
    if (!breakdown.empty()) std::cout << "  " << breakdown << "\n";
    correct = plain.correct() && traced.correct();
    attempted = plain.attempted + traced.attempted;
    failed = plain.failed + traced.failed;
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << "thread\tindex\tparent\tname\top\tstart_ns\tend_ns\tself_ns\n";
      traced.writer_trace.Write(out, "writer");
      traced.reader_trace.Write(out, "reader");
      if (!out) {
        std::cerr << "cannot write " << trace_out << "\n";
        correct = false;
      }
    }
  }
  std::cout << perfbench::JsonLine(correct, attempted, failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}
