// spider_perfbench: the repository benchmark's driver process.
//
//   spider_perfbench --workload ingest|verify|loopback --seed N --seconds S
//                    --trace 0|1 [--node-binary PATH --work-dir DIR]
//
// Ends its output with one JSON line: {"correct", "attempted", "failed",
// "metrics", "named"}, each metric as its value and sample count.
// perfbench/run.py checks the names against BENCHMARK.json and prints them
// with their units.  Exits 1 when any answer was wrong, 2 on bad usage or
// an aborted run.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload ingest|verify|loopback --seed N --seconds S --trace 0|1\n"
               "          [--node-binary PATH --work-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--node-binary") {
      options.node_binary = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (options.seconds <= 0) return usage(argv[0]);

  std::signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Report report(workload);
  try {
    if (workload == "ingest") {
      perfbench::run_ingest(options, report);
    } else if (workload == "verify") {
      perfbench::run_verify(options, report);
    } else if (workload == "loopback") {
      if (options.node_binary.empty() || options.work_dir.empty()) return usage(argv[0]);
      perfbench::run_loopback(options, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: aborted: %s\n", workload.c_str(), e.what());
    return 2;
  }
  report.print(options.trace);
  return report.correct() ? 0 : 1;
}
