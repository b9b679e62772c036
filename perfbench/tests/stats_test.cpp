// Unit checks of the benchmark's own measurement helpers: the percentile
// rule, the failure ratio, span self-time and coverage accounting, the
// process CPU clock and the reference-speed scaling.
#include <gtest/gtest.h>

#include <vector>

#include "reference.hpp"
#include "report.hpp"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(CpuClock, CountsThisProcessWork) {
  const double start = cpu_s();
  volatile double x = 0;
  for (int i = 0; i < 10'000'000; ++i) x = x + 1;
  EXPECT_GT(cpu_s(), start);
}

TEST(ReferenceSpeed, ScalesByTheReferenceTime) {
  // A slice measured while the reference ran twice as slow as on the
  // reference host counts half its CPU time.
  EXPECT_DOUBLE_EQ(at_reference_speed(1.0, 2 * kReferenceSeconds), 0.5);
  EXPECT_DOUBLE_EQ(at_reference_speed(1.0, kReferenceSeconds), 1.0);
  EXPECT_DOUBLE_EQ(at_reference_speed(1.0, 0), 1.0);
}

TEST(ReferenceWork, TakesCpuTime) {
  prepare_reference();
  EXPECT_GT(reference_s(), 0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 50);
  EXPECT_DOUBLE_EQ(percentile(values, 90), 90);
  EXPECT_DOUBLE_EQ(percentile(values, 99), 99);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 100);
  EXPECT_DOUBLE_EQ(percentile({7}, 90), 7);
  EXPECT_DOUBLE_EQ(percentile({}, 90), 0);
}

TEST(TailPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(19), std::nullopt);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(99), 50.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
}

TEST(PercentileLabel, NameSuffix) {
  EXPECT_EQ(percentile_label(90), "90");
  EXPECT_EQ(percentile_label(99.9), "99.9");
}

TEST(FailureRatio, CountsAgainstAttempted) {
  EXPECT_DOUBLE_EQ(failure_ratio(0, 10), 0);
  EXPECT_DOUBLE_EQ(failure_ratio(1, 4), 0.25);
  EXPECT_DOUBLE_EQ(failure_ratio(0, 0), 1);
}

TEST(SelfTimes, SubtractsTheUnionOfChildren) {
  // parent [0, 10] with children [1, 3], [2, 5] (overlapping) and [9, 12]
  // (running past the parent's end): covered = [1, 5] + [9, 10] = 5.
  const std::vector<SpanRecord> spans = {
      {"parent", 0, 10, -1, 0}, {"a", 1, 3, 0, 0}, {"b", 2, 5, 0, 0}, {"a", 9, 12, 0, 0},
      {"grandchild", 1, 2, 1, 0}};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self.at("parent"), 5);
  EXPECT_DOUBLE_EQ(self.at("a"), (2 - 1) + 3);  // its own child covers 1 of [1, 3]
  EXPECT_DOUBLE_EQ(self.at("b"), 3);
  EXPECT_DOUBLE_EQ(self.at("grandchild"), 1);
}

TEST(SpanCoverage, TopLevelSpansOverWall) {
  const std::vector<SpanRecord> spans = {
      {"x", 0, 2, -1, 0}, {"inner", 0, 1, 0, 0}, {"y", 3, 4, -1, 1}};
  EXPECT_DOUBLE_EQ(span_coverage(spans, 4), 0.75);
  EXPECT_DOUBLE_EQ(span_coverage(spans, 0), 0);
}

TEST(Tracer, NestsAndTagsOperations) {
  Tracer tracer(true);
  tracer.set_op(7);
  {
    Tracer::Scope outer(tracer, "outer");
    Tracer::Scope inner(tracer, "inner");
  }
  { Tracer::Scope next(tracer, "next"); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_EQ(tracer.spans()[1].op, 7u);
  EXPECT_LE(tracer.spans()[1].end, tracer.spans()[0].end);

  tracer.set_enabled(false);
  { Tracer::Scope ignored(tracer, "ignored"); }
  EXPECT_EQ(tracer.spans().size(), 3u);
}

}  // namespace
}  // namespace perfbench
