// The bench flag table (bench/bench_common: rlbench::ParseFlags): the values
// each flag kind accepts and stores, the usage line it builds from the
// table, and the exit status 2 plus usage line for everything it rejects.
// bench/malformed_flags_test.cmake runs the bench binaries themselves with
// rejected values; this test covers what they accept.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/parallel_runner.h"

namespace {

using rlbench::Flag;
using testing::ExitedWithCode;

// Runs ParseFlags over `args` (without the program name) and returns the
// usage line.
std::string Parse(std::vector<std::string> args,
                  const std::vector<Flag>& flags) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return rlbench::ParseFlags(static_cast<int>(argv.size()), argv.data(),
                             "prog", flags);
}

TEST(BenchFlagsTest, UintAcceptsItsMaximumAndRejectsOneMore) {
  uint64_t n = 7;
  Parse({}, {rlbench::Uint("--n", &n, 10)});
  EXPECT_EQ(n, 7u);  // absent: the default stays
  Parse({"--n", "10"}, {rlbench::Uint("--n", &n, 10)});
  EXPECT_EQ(n, 10u);
  EXPECT_EXIT(Parse({"--n", "11"}, {rlbench::Uint("--n", &n, 10)}),
              ExitedWithCode(2), "usage: prog \\[--n N\\]");

  Parse({"--n", "18446744073709551615"}, {rlbench::Uint("--n", &n)});
  EXPECT_EQ(n, UINT64_MAX);
  EXPECT_EXIT(
      Parse({"--n", "18446744073709551616"}, {rlbench::Uint("--n", &n)}),
      ExitedWithCode(2), "usage:");
  for (const char* bad : {"abc", "-1", "4x", ""}) {
    EXPECT_EXIT(Parse({"--n", bad}, {rlbench::Uint("--n", &n)}),
                ExitedWithCode(2), "usage:")
        << bad;
  }
}

TEST(BenchFlagsTest, JobsZeroMeansEveryCore) {
  int jobs = 1;
  Parse({"--jobs", "3"}, {rlbench::Jobs("--jobs", &jobs)});
  EXPECT_EQ(jobs, 3);
  Parse({"--jobs", "0"}, {rlbench::Jobs("--jobs", &jobs)});
  EXPECT_EQ(jobs, rlharness::DefaultJobs());
  EXPECT_EXIT(Parse({"--jobs", "abc"}, {rlbench::Jobs("--jobs", &jobs)}),
              ExitedWithCode(2), "usage:");
}

TEST(BenchFlagsTest, FractionAcceptsZeroToOne) {
  double x = -1.0;
  Parse({"--x", "0"}, {rlbench::Fraction("--x", &x)});
  EXPECT_EQ(x, 0.0);
  Parse({"--x", "1"}, {rlbench::Fraction("--x", &x)});
  EXPECT_EQ(x, 1.0);
  Parse({"--x", ".25"}, {rlbench::Fraction("--x", &x)});
  EXPECT_EQ(x, 0.25);
  for (const char* bad : {"1.5", "-0.1", "0.5x", "nan", "abc"}) {
    EXPECT_EXIT(Parse({"--x", bad}, {rlbench::Fraction("--x", &x)}),
                ExitedWithCode(2), "usage:")
        << bad;
  }
}

TEST(BenchFlagsTest, ChoicePathAndSwitch) {
  std::string budget = "full";
  std::string path;
  bool quick = false;
  const std::vector<Flag> flags = {
      rlbench::Choice("--budget", {"small", "full"}, &budget),
      rlbench::Path("--json", &path), rlbench::Switch("--quick", &quick)};
  Parse({"--quick", "--budget", "small", "--json", "out.json"}, flags);
  EXPECT_EQ(budget, "small");
  EXPECT_EQ(path, "out.json");
  EXPECT_TRUE(quick);
  EXPECT_EXIT(Parse({"--budget", "medium"}, flags), ExitedWithCode(2),
              "one of small\\|full");
  EXPECT_EXIT(Parse({"--json"}, flags), ExitedWithCode(2),
              "--json needs a value");
  EXPECT_EXIT(Parse({"--quik"}, flags), ExitedWithCode(2),
              "unknown argument: --quik");
}

TEST(BenchFlagsTest, UsageListsEveryFlagInTableOrder) {
  uint64_t seed = 0;
  int jobs = 1;
  double x = 0;
  std::string budget;
  std::string dir;
  bool audit = false;
  EXPECT_EQ(Parse({}, {rlbench::Uint("--seed", &seed),
                       rlbench::Jobs("--jobs", &jobs),
                       rlbench::Fraction("--cross-ratio", &x),
                       rlbench::Choice("--budget", {"small", "full"}, &budget),
                       rlbench::Path("--out", &dir, "DIR"),
                       rlbench::Switch("--audit", &audit)}),
            "usage: prog [--seed N] [--jobs N] [--cross-ratio X]"
            " [--budget small|full] [--out DIR] [--audit]");
  EXPECT_EQ(Parse({}, {}), "usage: prog");
  EXPECT_EXIT(Parse({"1"}, {}), ExitedWithCode(2), "usage: prog\n");
}

// The shape of bench_e13_fleet's rule across two flags, checked after the
// table; malformed_flags_test.cmake runs the binary with the same case.
TEST(BenchFlagsTest, CriticalPathJsonNeedsTraceOut) {
  const auto parse_e13 = [](std::vector<std::string> args) {
    std::string trace_out;
    std::string critical_path_json;
    const std::string usage =
        Parse(std::move(args),
              {rlbench::Path("--trace-out", &trace_out),
               rlbench::Path("--critical-path-json", &critical_path_json)});
    if (!critical_path_json.empty() && trace_out.empty()) {
      rlbench::UsageError("--critical-path-json needs --trace-out", usage);
    }
  };
  parse_e13({"--trace-out", "t.json", "--critical-path-json", "cp.json"});
  EXPECT_EXIT(parse_e13({"--critical-path-json", "cp.json"}),
              ExitedWithCode(2),
              "--critical-path-json needs --trace-out\nusage: prog");
}

}  // namespace
