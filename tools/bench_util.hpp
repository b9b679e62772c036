// Scale and trace helpers for spider_bench's paper experiments.
//
// Every scenario runs at one BenchScale, taken from spider_bench's
// --prefixes and --updates flags; full paper scale is --prefixes 391028.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>

#include "trace/routeviews.hpp"

namespace spider::benchutil {

struct BenchScale {
  std::size_t prefixes;
  std::size_t updates;
  double scale_factor;  // vs. the paper's 391,028-prefix table
};

/// `updates` defaults to the paper's 38,696-update trace scaled pro rata
/// to the table (at least 100).
inline BenchScale bench_scale(std::size_t prefixes,
                              std::optional<std::size_t> updates = std::nullopt) {
  constexpr std::size_t kPaperPrefixes = 391'028;
  constexpr std::size_t kPaperUpdates = 38'696;
  return {prefixes,
          updates.value_or(std::max<std::size_t>(100, kPaperUpdates * prefixes / kPaperPrefixes)),
          static_cast<double>(prefixes) / kPaperPrefixes};
}

inline trace::RouteViewsTrace bench_trace(const BenchScale& scale,
                                          netsim::Time duration = 15LL * 60 *
                                                                  netsim::kMicrosPerSecond) {
  trace::TraceConfig config;
  config.num_prefixes = scale.prefixes;
  config.num_updates = scale.updates;
  config.duration = duration;
  config.seed = 20120118;  // the paper's trace collection date
  return trace::generate(config);
}

}  // namespace spider::benchutil
