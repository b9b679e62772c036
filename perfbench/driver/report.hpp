// Measurement plumbing shared by the three workloads: the percentile rule,
// the in-memory span tracer with self-time and coverage accounting, and the
// run report that ends the driver's output with a one-line JSON result.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"

namespace perfbench {

/// Seconds on the steady clock.
double now_s();

/// CPU seconds (user plus system, every thread) a process has used; `pid`
/// 0 is this process.  Unlike wall time, it leaves out the time a shared
/// host hands the process's cores to other work, so the benchmark's cost
/// figures are taken in it.  Throws std::runtime_error when the process's
/// clock cannot be read.
double cpu_s(int pid = 0);

/// Median (mean of the middle two for an even count); 0 for no samples.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it.  0 for no samples.
double percentile(std::vector<double> values, double p);

/// The highest of the reported percentiles (99.9, 99, 90, 50) that leaves
/// at least ten samples beyond it, so a tail figure is never read off one
/// or two outliers.  nullopt below 20 samples.
std::optional<double> tail_percentile(std::size_t samples);

/// "90" for 90, "99.9" for 99.9: the suffix of a percentile metric name.
std::string percentile_label(double p);

/// failed / attempted; a run with no attempted operation counts as fully
/// failed.
double failure_ratio(std::uint64_t failed, std::uint64_t attempted);

/// Peak resident set of a process (VmHWM), in MiB; `pid` 0 is this process.
double peak_rss_mb(int pid = 0);

/// Restarts this process's peak-RSS count from its current RSS and returns
/// that RSS in MiB, so a later peak_rss_mb() minus it is the memory
/// everything since needed, without the generated inputs' transients.
/// Throws std::runtime_error when the kernel does not reset the count.
double reset_peak_rss();

/// Growth of the program's own obs counters and spans between two
/// MetricsRegistry snapshots.
class Counters {
 public:
  Counters(const spider::obs::Snapshot& before, const spider::obs::Snapshot& after)
      : before_(before), after_(after) {}
  double count(const std::string& name) const;
  double span_wall(const std::string& name) const;
  double span_child_wall(const std::string& name) const;

 private:
  const spider::obs::Snapshot& before_;
  const spider::obs::Snapshot& after_;
};

/// One span: a call into one layer, kept in memory until the run ends.
struct SpanRecord {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;        // index of the enclosing span, -1 at top level
  std::uint64_t op = 0;   // the operation (segment, session, cycle) it served
};

/// Self time per span name: each span's duration minus the part of it that
/// its direct children cover.
std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans);

/// Share of `wall` seconds covered by top-level spans.
double span_coverage(const std::vector<SpanRecord>& spans, double wall);

/// Records spans around calls into the program's layers.  Disabled, a
/// scope costs one branch, which is how the untraced runs measure.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_op(std::uint64_t op) { op_ = op; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::uint64_t op_ = 0;
  int open_ = -1;
  std::vector<SpanRecord> spans_;
};

struct Metric {
  double value = 0;
  std::string unit;  // named figures only; BENCHMARK.json holds the others'
  std::size_t samples = 0;
};

/// What one run measured and whether every answer checked out.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  /// Sets an end-to-end or per-layer metric.  BENCHMARK.json is the one
  /// list of their names and units; perfbench/run.py checks the names
  /// against it and attaches the units.
  void e2e(const std::string& name, double value, std::size_t samples);
  void layer(const std::string& name, double value, std::size_t samples);
  /// A named figure for the reader, outside BENCHMARK.json's lists (the
  /// workload-specific names the generic end-to-end metrics stand for).
  void note(const std::string& name, double value, const std::string& unit, std::size_t samples);

  /// Records a wrong answer; the run then exits non-zero.
  void wrong(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);

  bool correct() const { return wrong_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Prints the attempt count, then the JSON result as the last line:
  /// {"correct", "attempted", "failed", "metrics", "named"}, where
  /// "metrics" holds the end-to-end metrics when `traced` is false and the
  /// per-layer ones otherwise, each as {"value", "samples"}, and "named"
  /// holds the named figures as {"value", "unit", "samples"}.
  void print(bool traced);

 private:
  std::string workload_;
  std::map<std::string, Metric> e2e_, layer_, notes_;
  std::vector<std::string> wrong_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
