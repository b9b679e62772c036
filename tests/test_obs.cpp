// Unit tests for the observability layer: exact concurrent counter sums,
// histogram bucket boundaries, snapshot JSON round-trips, span nesting,
// the Prometheus text dump, and the SHA-512 batcher's digest counters.
//
// The registry is process-global, so every test isolates itself with
// MetricsRegistry::reset() and uses test-unique metric names.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/sha2_multi.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace so = spider::obs;
namespace json = spider::obs::json;

namespace {

so::MetricsRegistry& registry() { return so::MetricsRegistry::instance(); }

}  // namespace

TEST(Json, ScalarRoundtrip) {
  EXPECT_EQ(json::parse("null"), json::Value());
  EXPECT_EQ(json::parse("true"), json::Value(true));
  EXPECT_EQ(json::parse("-17"), json::Value(-17.0));
  EXPECT_EQ(json::parse("2.5"), json::Value(2.5));
  EXPECT_EQ(json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, StableSortedKeys) {
  json::Object obj;
  obj["zebra"] = 1;
  obj["apple"] = 2;
  obj["mango"] = json::Array{json::Value(1), json::Value("two")};
  std::string text = json::Value(obj).dump();
  EXPECT_EQ(text, "{\"apple\":2,\"mango\":[1,\"two\"],\"zebra\":1}");
  EXPECT_EQ(json::parse(text), json::Value(obj));
}

TEST(Json, IntegersPrintWithoutExponent) {
  // Counter values live in doubles; 2^40 must not become 1.09952e+12.
  json::Value v(std::uint64_t{1} << 40);
  EXPECT_EQ(v.dump(), "1099511627776");
}

TEST(Json, StrictParseRejectsGarbage) {
  EXPECT_THROW(json::parse(""), json::ParseError);
  EXPECT_THROW(json::parse("{\"a\":1,}"), json::ParseError);
  EXPECT_THROW(json::parse("[1,2] trailing"), json::ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
  EXPECT_THROW(json::parse("{\"dup\" 1}"), json::ParseError);
  EXPECT_THROW(json::parse("01"), json::ParseError);
}

TEST(Metrics, CounterBasic) {
  registry().reset();
  so::Counter c = registry().counter("test/basic");
  c.add();
  c.add(41);
  EXPECT_EQ(registry().snapshot().counters.at("test/basic"), 42u);
}

TEST(Metrics, SameNameSameMetric) {
  registry().reset();
  so::Counter a = registry().counter("test/same");
  so::Counter b = registry().counter("test/same");
  a.add(1);
  b.add(2);
  EXPECT_EQ(registry().snapshot().counters.at("test/same"), 3u);
}

TEST(Metrics, KindMismatchThrows) {
  registry().counter("test/kind_mismatch");
  EXPECT_THROW(registry().gauge("test/kind_mismatch"), std::logic_error);
  EXPECT_THROW(registry().histogram("test/kind_mismatch", so::latency_buckets_micros()),
               std::logic_error);
}

TEST(Metrics, ConcurrentCounterSumsExactly) {
  registry().reset();
  so::Counter c = registry().counter("test/concurrent");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kIncrements; ++i) c.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  // Shards from exited threads are retired into the registry's totals;
  // nothing may be lost or double-counted.
  EXPECT_EQ(registry().snapshot().counters.at("test/concurrent"),
            static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, CounterVisibleWhileThreadLives) {
  registry().reset();
  so::Counter c = registry().counter("test/live_shard");
  std::atomic<bool> counted{false}, done{false};
  std::thread worker([&] {
    c.add(7);
    counted.store(true);
    while (!done.load()) std::this_thread::yield();
  });
  while (!counted.load()) std::this_thread::yield();
  // The worker is still alive: its live shard must be merged.
  EXPECT_EQ(registry().snapshot().counters.at("test/live_shard"), 7u);
  done.store(true);
  worker.join();
}

TEST(Metrics, GaugeSetAddMax) {
  registry().reset();
  so::Gauge g = registry().gauge("test/gauge");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(registry().snapshot().gauges.at("test/gauge"), 7);
  g.max(5);  // below current: no change
  EXPECT_EQ(registry().snapshot().gauges.at("test/gauge"), 7);
  g.max(20);
  EXPECT_EQ(registry().snapshot().gauges.at("test/gauge"), 20);
}

TEST(Metrics, HistogramBucketBoundariesInclusive) {
  registry().reset();
  std::vector<std::uint64_t> bounds = {10, 100, 1000};
  so::Histogram h = registry().histogram("test/hist", bounds);
  h.observe(0);     // -> bucket 0 (<= 10)
  h.observe(10);    // -> bucket 0 (upper bounds are inclusive)
  h.observe(11);    // -> bucket 1
  h.observe(100);   // -> bucket 1
  h.observe(999);   // -> bucket 2
  h.observe(1001);  // -> overflow bucket
  auto snap = registry().snapshot();
  const so::HistogramData& data = snap.histograms.at("test/hist");
  ASSERT_EQ(data.bounds, bounds);
  ASSERT_EQ(data.counts.size(), 4u);
  EXPECT_EQ(data.counts[0], 2u);
  EXPECT_EQ(data.counts[1], 2u);
  EXPECT_EQ(data.counts[2], 1u);
  EXPECT_EQ(data.counts[3], 1u);
  EXPECT_EQ(data.count, 6u);
  EXPECT_EQ(data.sum, 0u + 10 + 11 + 100 + 999 + 1001);
}

TEST(Metrics, HistogramBoundsMismatchThrows) {
  registry().histogram("test/hist_bounds", {1, 2, 3});
  EXPECT_THROW(registry().histogram("test/hist_bounds", {1, 2, 4}), std::logic_error);
}

TEST(Metrics, ResetZeroesEverything) {
  registry().counter("test/reset_counter").add(5);
  registry().gauge("test/reset_gauge").set(5);
  registry().reset();
  auto snap = registry().snapshot();
  EXPECT_EQ(snap.counters.at("test/reset_counter"), 0u);
  EXPECT_EQ(snap.gauges.at("test/reset_gauge"), 0);
}

TEST(Snapshot, JsonRoundTrip) {
  registry().reset();
  registry().counter("test/rt_counter").add(123);
  registry().gauge("test/rt_gauge").set(-4);
  registry().histogram("test/rt_hist", {10, 100}).observe(55);
  {
    so::Span outer("test/rt_outer");
    so::Span inner("test/rt_inner");
  }
  so::Snapshot snap = registry().snapshot();
  so::Snapshot back = so::Snapshot::from_json(json::parse(snap.json_text()));
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), snap.histograms.size());
  const auto& h = back.histograms.at("test/rt_hist");
  EXPECT_EQ(h.counts, snap.histograms.at("test/rt_hist").counts);
  EXPECT_EQ(h.sum, 55u);
  ASSERT_TRUE(back.spans.count("test/rt_inner"));
  EXPECT_EQ(back.spans.at("test/rt_inner").parent, "test/rt_outer");
  EXPECT_EQ(back.spans.at("test/rt_inner").count, 1u);
}

TEST(Snapshot, FromJsonRejectsMalformed) {
  EXPECT_THROW(so::Snapshot::from_json(json::parse("[]")), std::logic_error);
  EXPECT_THROW(so::Snapshot::from_json(json::parse("{\"counters\": {\"a\": \"x\"}}")),
               std::logic_error);
  // Histogram with counts.size() != bounds.size() + 1.
  EXPECT_THROW(
      so::Snapshot::from_json(json::parse(
          "{\"histograms\": {\"h\": {\"bounds\": [1], \"counts\": [1], \"sum\": 0, "
          "\"count\": 0}}}")),
      std::logic_error);
}

TEST(Span, NestingAttributesChildWall) {
  registry().reset();
  {
    so::Span outer("test/span_outer");
    {
      so::Span inner("test/span_inner");
      volatile double sink = 0;
      for (int i = 0; i < 200000; ++i) sink = sink + 1.0;
    }
  }
  auto snap = registry().snapshot();
  const so::SpanData& outer = snap.spans.at("test/span_outer");
  const so::SpanData& inner = snap.spans.at("test/span_inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_EQ(inner.parent, "test/span_outer");
  EXPECT_EQ(outer.parent, "");
  // The outer span's child_wall is the inner span's wall time, so outer
  // self time (wall - child_wall) stays non-negative.
  EXPECT_GE(outer.wall_seconds, outer.child_wall_seconds);
  EXPECT_GT(outer.child_wall_seconds, 0.0);
  EXPECT_EQ(inner.child_wall_seconds, 0.0);
}

TEST(Span, SiblingSpansShareParentAttribution) {
  registry().reset();
  {
    so::Span outer("test/sib_outer");
    for (int i = 0; i < 3; ++i) {
      so::Span child("test/sib_child");
    }
  }
  auto snap = registry().snapshot();
  EXPECT_EQ(snap.spans.at("test/sib_child").count, 3u);
  EXPECT_EQ(snap.spans.at("test/sib_child").parent, "test/sib_outer");
}

TEST(Span, PerThreadNesting) {
  // The current-span chain is thread-local: a span open on one thread must
  // not become the parent of a span on another.
  registry().reset();
  {
    so::Span outer("test/tl_outer");
    std::thread worker([] { so::Span span("test/tl_worker"); });
    worker.join();
  }
  auto snap = registry().snapshot();
  EXPECT_EQ(snap.spans.at("test/tl_worker").parent, "");
}

TEST(Prometheus, TextDumpShape) {
  registry().reset();
  registry().counter("test/prom_ops").add(9);
  registry().gauge("test/prom_depth").set(3);
  registry().histogram("test/prom_lat", {10, 100}).observe(42);
  std::string text = registry().snapshot().prometheus_text();
  // '/' becomes '_' and histograms expand to cumulative buckets + +Inf.
  EXPECT_NE(text.find("spider_test_prom_ops 9"), std::string::npos);
  EXPECT_NE(text.find("spider_test_prom_depth 3"), std::string::npos);
  EXPECT_NE(text.find("spider_test_prom_lat_bucket{le=\"100\"} 1"), std::string::npos);
  EXPECT_NE(text.find("spider_test_prom_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("spider_test_prom_lat_sum 42"), std::string::npos);
  EXPECT_NE(text.find("spider_test_prom_lat_count 1"), std::string::npos);
}

TEST(CryptoCounters, BatchCountsEveryDigestOnce) {
  // Mixed lengths: runs of equal padded block counts go through the lanes,
  // stragglers through the scalar class, and both must count each message
  // exactly once however the batcher groups them.
  spider::util::SplitMix64 rng(2718);
  std::vector<spider::util::Bytes> msgs;
  std::uint64_t total_bytes = 0;
  for (int i = 0; i < 101; ++i) {
    const std::size_t len = i % 7 == 0 ? 0 : rng.below(300);
    msgs.emplace_back(len, static_cast<std::uint8_t>(i));
    total_bytes += len;
  }
  std::vector<spider::util::ByteSpan> spans;
  for (const auto& m : msgs) spans.emplace_back(m.data(), m.size());

  registry().reset();
  std::vector<spider::crypto::Sha512::Digest> full(spans.size());
  spider::crypto::sha512_batch(spans.data(), spans.size(), full.data());
  auto snap = registry().snapshot();
  EXPECT_EQ(snap.counters["crypto/sha512_digests"], msgs.size());
  EXPECT_EQ(snap.counters["crypto/sha512_bytes"], total_bytes);

  registry().reset();
  std::vector<spider::util::Digest20> truncated(spans.size());
  spider::crypto::digest20_batch(spans.data(), spans.size(), truncated.data());
  snap = registry().snapshot();
  EXPECT_EQ(snap.counters["crypto/sha512_digests"], msgs.size());
  EXPECT_EQ(snap.counters["crypto/sha512_bytes"], total_bytes);
}
