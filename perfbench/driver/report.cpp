#include "report.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/json.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s(int pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  if (pid != 0 && clock_getcpuclockid(pid, &clock) != 0) {
    throw std::runtime_error("cannot read the CPU clock of process " + std::to_string(pid));
  }
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("cannot read the CPU clock of process " + std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

namespace {

/// Nearest rank (1-based) of percentile p among n samples.  The epsilon
/// keeps 99.9% of 10,000 at rank 9,990 despite binary rounding.
std::size_t nearest_rank(double p, std::size_t n) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return rank < 1 ? 1 : static_cast<std::size_t>(rank);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[std::min(nearest_rank(p, values.size()), values.size()) - 1];
}

std::optional<double> tail_percentile(std::size_t samples) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    if (samples >= nearest_rank(p, samples) + 10) return p;
  }
  return std::nullopt;
}

std::string percentile_label(double p) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

double failure_ratio(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 1;
  return static_cast<double>(failed) / static_cast<double>(attempted);
}

namespace {

double status_mb(const std::string& path, const char* field) {
  std::ifstream in(path);
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) return std::stod(line.substr(prefix.size())) / 1024.0;
  }
  return 0;
}

}  // namespace

double peak_rss_mb(int pid) {
  return status_mb(
      pid == 0 ? std::string("/proc/self/status") : "/proc/" + std::to_string(pid) + "/status",
      "VmHWM");
}

double reset_peak_rss() {
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    if (!clear) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
  }
  const double rss = status_mb("/proc/self/status", "VmRSS");
  // A reset that did not take would leave the inputs' peak in VmHWM and
  // make peak_rss_mb a different quantity; allow a little growth since.
  const double hwm = status_mb("/proc/self/status", "VmHWM");
  if (hwm > rss + 1) {
    throw std::runtime_error("peak RSS did not drop to the current RSS after a reset");
  }
  return rss;
}

double Counters::count(const std::string& name) const {
  auto value = [&](const spider::obs::Snapshot& snap) -> std::uint64_t {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  return static_cast<double>(value(after_) - value(before_));
}

double Counters::span_wall(const std::string& name) const {
  auto value = [&](const spider::obs::Snapshot& snap) {
    auto it = snap.spans.find(name);
    return it == snap.spans.end() ? 0.0 : it->second.wall_seconds;
  };
  return value(after_) - value(before_);
}

double Counters::span_child_wall(const std::string& name) const {
  auto value = [&](const spider::obs::Snapshot& snap) {
    auto it = snap.spans.find(name);
    return it == snap.spans.end() ? 0.0 : it->second.child_wall_seconds;
  };
  return value(after_) - value(before_);
}

std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    // Union of the children's intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = span.start;
    for (const auto& [start, end] : kids) {
      const double from = std::max(start, reach);
      const double to = std::min(end, span.end);
      if (to > from) covered += to - from;
      reach = std::max(reach, to);
    }
    out[span.name] += std::max(0.0, span.end - span.start - covered);
  }
  return out;
}

double span_coverage(const std::vector<SpanRecord>& spans, double wall) {
  if (wall <= 0) return 0;
  double covered = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent < 0) covered += span.end - span.start;
  }
  return covered / wall;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<int>(tracer_.spans_.size());
  saved_parent_ = tracer_.open_;
  tracer_.spans_.push_back({name, now_s(), 0, tracer_.open_, tracer_.op_});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end = now_s();
  tracer_.open_ = saved_parent_;
}

void Report::e2e(const std::string& name, double value, std::size_t samples) {
  e2e_[name] = {value, "", samples};
}

void Report::layer(const std::string& name, double value, std::size_t samples) {
  layer_[name] = {value, "", samples};
}

void Report::note(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) {
  notes_[name] = {value, unit, samples};
}

void Report::wrong(const std::string& what) {
  wrong_.push_back(what);
  std::fprintf(stderr, "perfbench %s: WRONG ANSWER: %s\n", workload_.c_str(), what.c_str());
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "perfbench %s: failed operation: %s\n", workload_.c_str(), what.c_str());
}

void Report::print(bool traced) {
  if (traced) layer("run.failed_ops_ratio", failure_ratio(failed_, attempted_), attempted_);
  std::printf("perfbench %s attempted=%llu failed=%llu correct=%s\n", workload_.c_str(),
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), correct() ? "true" : "false");

  namespace json = spider::obs::json;
  auto section = [](const std::map<std::string, Metric>& metrics, bool with_unit) {
    json::Object out;
    for (const auto& [name, metric] : metrics) {
      json::Object entry;
      entry["value"] = metric.value;
      entry["samples"] = metric.samples;
      if (with_unit) entry["unit"] = metric.unit;
      out[name] = std::move(entry);
    }
    return out;
  };
  json::Object result;
  result["correct"] = correct();
  result["attempted"] = attempted_;
  result["failed"] = failed_;
  result["metrics"] = section(traced ? layer_ : e2e_, false);
  result["named"] = section(notes_, true);
  std::printf("%s\n", json::Value(std::move(result)).dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
