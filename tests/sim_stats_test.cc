#include "src/sim/stats.h"

#include <gtest/gtest.h>

#include "src/sim/check.h"
#include "src/sim/rng.h"

namespace rlsim {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.value(), 5);
  c.Add(-2);
  EXPECT_EQ(c.value(), 3);
  c.Reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(HistogramTest, Empty) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, EmptyMinMaxIsAnError) {
  // Regression: min()/max() used to report the zero-initialised defaults as
  // if they were observations; an empty histogram must refuse instead.
  Histogram h;
  EXPECT_THROW(h.min(), CheckFailure);
  EXPECT_THROW(h.max(), CheckFailure);
  h.Record(7);
  EXPECT_EQ(h.min(), 7);
  h.Reset();
  EXPECT_THROW(h.min(), CheckFailure);
}

TEST(HistogramTest, EmptySummaryRendersExplicitly) {
  Histogram h;
  EXPECT_EQ(h.Summary(), "n=0 (empty)");
  EXPECT_EQ(h.DurationSummary(), "n=0 (empty)");
  h.Record(1);
  EXPECT_EQ(h.Summary().find("(empty)"), std::string::npos);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(42);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_DOUBLE_EQ(h.Mean(), 42.0);
  // 42 lies in a bucket of width 2 at this magnitude: [42,43].
  EXPECT_GE(h.Percentile(50), 42);
  EXPECT_LE(h.Percentile(50), 43);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (int64_t v = 0; v < 16; ++v) {
    h.Record(v);
  }
  // Values below 16 are bucketed exactly.
  EXPECT_EQ(h.Percentile(100.0 / 16.0), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 15);
}

TEST(HistogramTest, PercentileMonotonic) {
  Histogram h;
  Rng rng(5);
  for (int i = 0; i < 10'000; ++i) {
    h.Record(rng.UniformInt(0, 1'000'000));
  }
  int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
    const int64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(HistogramTest, RelativeErrorBounded) {
  Histogram h;
  const int64_t value = 123'456'789;
  h.Record(value);
  const int64_t p = h.Percentile(50);
  // Log-linear bucketing guarantees <= 1/16 relative error.
  EXPECT_GE(p, value);
  EXPECT_LE(p, value + value / 8);
}

TEST(HistogramTest, UniformMedianApprox) {
  Histogram h;
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    h.Record(rng.UniformInt(0, 1000));
  }
  EXPECT_NEAR(static_cast<double>(h.Percentile(50)), 500, 40);
  EXPECT_NEAR(h.Mean(), 500, 10);
}

TEST(HistogramTest, NegativeValueRejected) {
  Histogram h;
  EXPECT_THROW(h.Record(-1), CheckFailure);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.Record(10);
    b.Record(1000);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
  EXPECT_NEAR(a.Mean(), 505.0, 1.0);
}

TEST(HistogramTest, MergeIntoEmpty) {
  Histogram a;
  Histogram b;
  b.Record(5);
  a.Merge(b);
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 5);
}

TEST(HistogramTest, MergePreservesCountSumAndPercentileMonotonicity) {
  // Merging two populated histograms must behave exactly as if every sample
  // had been recorded into one: count and sum add up, and percentiles stay
  // (a) monotone in p and (b) within bucket error of the direct recording.
  Histogram a;
  Histogram b;
  Histogram direct;
  Rng rng(17);
  int64_t expected_sum = 0;
  for (int i = 0; i < 5'000; ++i) {
    const int64_t va = rng.UniformInt(0, 100'000);
    const int64_t vb = rng.UniformInt(50'000, 5'000'000);
    a.Record(va);
    b.Record(vb);
    direct.Record(va);
    direct.Record(vb);
    expected_sum += va + vb;
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 10'000);
  EXPECT_EQ(a.count(), direct.count());
  EXPECT_DOUBLE_EQ(a.Mean() * static_cast<double>(a.count()),
                   static_cast<double>(expected_sum));
  EXPECT_EQ(a.min(), direct.min());
  EXPECT_EQ(a.max(), direct.max());
  int64_t prev = 0;
  for (double p : {0.0, 5.0, 25.0, 50.0, 75.0, 95.0, 99.9, 100.0}) {
    const int64_t merged_p = a.Percentile(p);
    EXPECT_GE(merged_p, prev) << "p=" << p;
    EXPECT_EQ(merged_p, direct.Percentile(p)) << "p=" << p;
    prev = merged_p;
  }
}

TEST(HistogramTest, PercentileIsBucketUpperBound) {
  // The documented contract: Percentile(p) returns an upper bound of the
  // bucket holding the p-th observation — never below the true value, and
  // never more than one sub-bucket width (1/16 relative) above it.
  Histogram h;
  for (const int64_t v : {1'000, 33'333, 700'000, 12'345'678}) {
    Histogram single;
    single.Record(v);
    const int64_t p100 = single.Percentile(100);
    EXPECT_GE(p100, v);
    EXPECT_LE(p100, v + v / 8);
    h.Record(v);
  }
  // With all four recorded, p100 caps at the recorded max.
  EXPECT_LE(h.Percentile(100), h.max());
}

TEST(HistogramTest, ResetClearsEverything) {
  Histogram h;
  h.Record(5);
  h.Record(500);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, DurationRecording) {
  Histogram h;
  h.RecordDuration(Duration::Millis(5));
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.PercentileDuration(50), Duration::Millis(5));
  EXPECT_LE(h.PercentileDuration(50), Duration::Millis(6));
}

TEST(HistogramTest, SummaryNonEmpty) {
  Histogram h;
  h.Record(100);
  EXPECT_NE(h.Summary().find("n=1"), std::string::npos);
  EXPECT_NE(h.DurationSummary().find("n=1"), std::string::npos);
}

TEST(HistogramTest, RecordAfterResetReseedsExtremes) {
  // Regression guard for testbed reuse across bench phases: a Reset must
  // leave the histogram indistinguishable from a fresh one, including the
  // min/max seeding path and the bucket array (a stale bucket would skew
  // every percentile of the next phase).
  Histogram h;
  h.Record(3);
  h.Record(1'000'000);
  h.Reset();
  h.Record(500);
  h.Record(700);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.min(), 500);
  EXPECT_EQ(h.max(), 700);
  EXPECT_NEAR(h.Mean(), 600.0, 0.01);
  // All mass is in [500, 700]: no percentile may see the pre-Reset values.
  EXPECT_GE(h.Percentile(1), 500);
  EXPECT_LE(h.Percentile(100), 700 + 700 / 8);
}

TEST(CounterTest, ResetAcrossPhases) {
  Counter c;
  c.Add(41);
  c.Reset();
  c.Add();
  EXPECT_EQ(c.value(), 1);
}

TEST(StatsRegistryTest, FormatsSortedByName) {
  Counter writes;
  writes.Add(7);
  Counter drops;  // zero stays visible: a zero is evidence, not noise
  Histogram latency;
  latency.Record(100);

  StatsRegistry registry;
  registry.RegisterCounter("net.writes", &writes);
  registry.RegisterCounter("net.drops", &drops);
  registry.RegisterHistogram("disk.latency", &latency);
  EXPECT_EQ(registry.size(), 3u);

  const std::string out = registry.Format();
  const size_t disk_pos = out.find("disk.latency");
  const size_t drops_pos = out.find("net.drops");
  const size_t writes_pos = out.find("net.writes");
  ASSERT_NE(disk_pos, std::string::npos);
  ASSERT_NE(drops_pos, std::string::npos);
  ASSERT_NE(writes_pos, std::string::npos);
  EXPECT_LT(disk_pos, drops_pos);
  EXPECT_LT(drops_pos, writes_pos);
  EXPECT_NE(out.find("7"), std::string::npos);
  EXPECT_NE(out.find("n=1"), std::string::npos);
}

TEST(StatsRegistryTest, LiveValuesNotSnapshots) {
  // The registry holds pointers: Format() must reflect the stat's value at
  // format time, not at registration time.
  Counter c;
  StatsRegistry registry;
  registry.RegisterCounter("c", &c);
  c.Add(5);
  EXPECT_NE(registry.Format().find("5"), std::string::npos);
}

TEST(StatsRegistryTest, ToJsonRendersCountersAndHistograms) {
  Counter writes;
  writes.Add(7);
  Histogram latency;
  latency.Record(100);
  Histogram idle;  // stays empty
  StatsRegistry registry;
  registry.RegisterCounter("net.writes", &writes);
  registry.RegisterHistogram("disk.latency", &latency);
  registry.RegisterHistogram("disk.idle", &idle);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"net.writes\":7"), std::string::npos);
  EXPECT_NE(json.find("\"disk.idle\":{\"count\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"disk.latency\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
  // Name-sorted: disk.* precedes net.*.
  EXPECT_LT(json.find("disk.idle"), json.find("net.writes"));
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(StatsRegistryTest, DuplicateNameRejected) {
  Counter a;
  Counter b;
  StatsRegistry registry;
  registry.RegisterCounter("x", &a);
  EXPECT_THROW(registry.RegisterCounter("x", &b), CheckFailure);
}

}  // namespace
}  // namespace rlsim
