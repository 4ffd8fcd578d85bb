#include "tools/benchdiff/benchdiff.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace benchdiff {
namespace {

std::vector<Metric> MustParse(const std::string& text) {
  std::vector<Metric> out;
  std::string error;
  EXPECT_TRUE(ParseBenchJson(text, &out, &error)) << error;
  return out;
}

int CountRule(const std::vector<lintlib::Finding>& findings,
              const std::string& rule) {
  int n = 0;
  for (const lintlib::Finding& f : findings) {
    n += f.rule == rule ? 1 : 0;
  }
  return n;
}

TEST(BenchdiffParseTest, ParsesWriterShapedJson) {
  const std::vector<Metric> m = MustParse(
      "{\"bench\":\"e13_fleet\",\"metrics\":["
      "{\"name\":\"e13.s2.txns_per_sec\",\"value\":1234.5,\"unit\":\"1/s\"},"
      "{\"name\":\"e13.s2.aborts\",\"value\":7,\"unit\":\"count\"}]}");
  ASSERT_EQ(m.size(), 2u);
  EXPECT_EQ(m[0].name, "e13.s2.txns_per_sec");
  EXPECT_DOUBLE_EQ(m[0].value, 1234.5);
  EXPECT_EQ(m[0].unit, "1/s");
  EXPECT_EQ(m[1].name, "e13.s2.aborts");
  EXPECT_DOUBLE_EQ(m[1].value, 7.0);
}

TEST(BenchdiffParseTest, SkipsNestedRawBlocksAfterMetricsArray) {
  // BenchJsonWriter::AddRaw appends nested arrays-of-objects after the
  // metrics array; their "name" keys must not be parsed as metrics.
  const std::vector<Metric> m = MustParse(
      "{\"metrics\":["
      "{\"name\":\"real\",\"value\":1,\"unit\":\"count\"}],"
      "\"snapshots_steady\":[{\"name\":\"fake\",\"value\":9,"
      "\"unit\":\"count\"}]}");
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].name, "real");
}

TEST(BenchdiffParseTest, RejectsMalformedInput) {
  std::vector<Metric> out;
  std::string error;
  EXPECT_FALSE(ParseBenchJson("{}", &out, &error));
  EXPECT_FALSE(ParseBenchJson("{\"metrics\":[", &out, &error));
  EXPECT_FALSE(ParseBenchJson("{\"metrics\":[]}", &out, &error));
  EXPECT_FALSE(ParseBenchJson(
      "{\"metrics\":[{\"name\":\"x\",\"value\":abc,\"unit\":\"u\"}]}", &out,
      &error));
}

TEST(BenchdiffDiffTest, InBandMetricsProduceNoFindings) {
  const std::vector<Metric> base = {{"tps", 100.0, "1/s"}};
  const std::vector<Metric> fresh = {{"tps", 120.0, "1/s"}};
  DiffOptions opts;  // default 0.35 band: |120-100| = 20 <= 35
  const auto findings = DiffBench(base, fresh, opts, "fresh.json");
  EXPECT_TRUE(findings.empty());
  EXPECT_FALSE(HasErrors(findings));
}

TEST(BenchdiffDiffTest, OutOfBandIsBlockingError) {
  const std::vector<Metric> base = {{"tps", 100.0, "1/s"}};
  const std::vector<Metric> fresh = {{"tps", 200.0, "1/s"}};
  const auto findings = DiffBench(base, fresh, DiffOptions{}, "fresh.json");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BD001");
  EXPECT_EQ(findings[0].severity, "error");
  EXPECT_TRUE(HasErrors(findings));
}

TEST(BenchdiffDiffTest, PerMetricOverrideBeatsDefault) {
  const std::vector<Metric> base = {{"wall", 100.0, "s"},
                                    {"virt", 100.0, "us"}};
  const std::vector<Metric> fresh = {{"wall", 120.0, "s"},
                                     {"virt", 101.0, "us"}};
  DiffOptions opts;
  opts.overrides["virt"] = 0.0;  // deterministic metric: exact match only
  const auto findings = DiffBench(base, fresh, opts, "fresh.json");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BD001");
  EXPECT_NE(findings[0].message.find("virt"), std::string::npos);
}

TEST(BenchdiffDiffTest, UnitChangeIsError) {
  const std::vector<Metric> base = {{"lat", 5.0, "ms"}};
  const std::vector<Metric> fresh = {{"lat", 5.0, "us"}};
  const auto findings = DiffBench(base, fresh, DiffOptions{}, "fresh.json");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "BD001");
  EXPECT_NE(findings[0].message.find("changed unit"), std::string::npos);
}

TEST(BenchdiffDiffTest, MissingAndNewMetricsAreWarnings) {
  const std::vector<Metric> base = {{"gone", 1.0, "count"}};
  const std::vector<Metric> fresh = {{"added", 2.0, "count"}};
  const auto findings = DiffBench(base, fresh, DiffOptions{}, "fresh.json");
  EXPECT_EQ(CountRule(findings, "BD002"), 1);
  EXPECT_EQ(CountRule(findings, "BD003"), 1);
  EXPECT_FALSE(HasErrors(findings));  // warnings never block
}

TEST(BenchdiffDiffTest, ZeroBaselineToleratesOnlyZero) {
  const std::vector<Metric> base = {{"violations", 0.0, "count"}};
  const std::vector<Metric> same = {{"violations", 0.0, "count"}};
  const std::vector<Metric> moved = {{"violations", 1.0, "count"}};
  EXPECT_FALSE(HasErrors(DiffBench(base, same, DiffOptions{}, "f")));
  EXPECT_TRUE(HasErrors(DiffBench(base, moved, DiffOptions{}, "f")));
}

TEST(BenchdiffToleranceTest, AcceptsDefaultAndPerMetricBands) {
  DiffOptions opts;
  std::string error;
  EXPECT_TRUE(ParseTolerance("0", &opts, &error)) << error;
  EXPECT_EQ(opts.default_tolerance, 0.0);
  EXPECT_TRUE(ParseTolerance("3.0", &opts, &error)) << error;
  EXPECT_EQ(opts.default_tolerance, 3.0);
  EXPECT_TRUE(ParseTolerance("tps=0.25", &opts, &error)) << error;
  EXPECT_EQ(opts.overrides.at("tps"), 0.25);
}

TEST(BenchdiffToleranceTest, RejectsMalformedBands) {
  // Each of these once parsed to some band (0 for "abc", 0.25 for "0.25x");
  // now each is an error and leaves the options as they were.
  for (const char* bad : {"abc", "0.25x", "", "tps=", "tps=abc",
                          "tps=0.25x", "=0.5", "-0.1", "inf", "nan",
                          "tps=-1"}) {
    DiffOptions opts;
    std::string error;
    EXPECT_FALSE(ParseTolerance(bad, &opts, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
    EXPECT_EQ(opts.default_tolerance, DiffOptions{}.default_tolerance) << bad;
    EXPECT_TRUE(opts.overrides.empty()) << bad;
  }
}

TEST(BenchdiffToleranceTest, OverrideMustNameABaselineMetric) {
  const std::vector<Metric> base = {{"tps", 100.0, "1/s"}};
  DiffOptions opts;
  std::string error;
  opts.overrides["tps"] = 0.1;
  EXPECT_TRUE(CheckOverrides(opts, base, &error)) << error;
  opts.overrides["tsp"] = 0.1;  // a typo gates nothing
  EXPECT_FALSE(CheckOverrides(opts, base, &error));
  EXPECT_NE(error.find("tsp"), std::string::npos) << error;
}

}  // namespace
}  // namespace benchdiff
