// The three benchmark workloads.  Each runs a closed loop for the run's
// measuring time, checks every answer, and fills a Report.  Their cost
// figures are CPU time scaled to the reference host speed (reference.hpp).
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Record layer spans and report per-layer metrics instead of end-to-end
  /// ones.
  bool trace = false;
  /// The spider_node executable the loopback workload starts, and the
  /// directory its port files and logs go to.
  std::string node_binary;
  std::string work_dir;
};

/// a / b, or 0 when b is 0 (an idle layer reports 0, never NaN).
inline double ratio(double a, double b) { return b != 0 ? a / b : 0; }

/// How many times each workload repeats its set-up; setup_s is the median.
constexpr int kSetupRepeats = 5;

void run_ingest(const RunOptions& options, Report& report);
void run_verify(const RunOptions& options, Report& report);
void run_loopback(const RunOptions& options, Report& report);

}  // namespace perfbench
