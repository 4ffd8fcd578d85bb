// The deterministic job pool's contract (src/harness/parallel_runner):
// results land in job-index order at any worker count, every job runs
// exactly once, degenerate job counts clamp sanely, and when jobs throw,
// every job still runs and the lowest-index exception is the one rethrown
// (so the surfaced error does not depend on thread scheduling).
#include "src/harness/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace {

TEST(ParallelRunnerTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(rlharness::DefaultJobs(), 1);
}

TEST(ParallelRunnerTest, ResultsInIndexOrderAtAnyJobCount) {
  const std::vector<int> expected = [] {
    std::vector<int> v;
    for (int i = 0; i < 100; ++i) v.push_back(i * i);
    return v;
  }();
  for (int jobs : {1, 2, 3, 8, 64}) {
    const std::vector<int> results = rlharness::RunJobs<int>(
        jobs, 100, [](size_t i) { return static_cast<int>(i * i); });
    EXPECT_EQ(results, expected) << "jobs=" << jobs;
  }
}

TEST(ParallelRunnerTest, EveryIndexRunsExactlyOnce) {
  constexpr size_t kJobs = 200;
  std::vector<std::atomic<int>> counts(kJobs);
  rlharness::RunIndexedJobs(8, kJobs, [&counts](size_t i) {
    counts[i].fetch_add(1);
  });
  for (size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelRunnerTest, DegenerateJobCountsClamp) {
  // jobs <= 0 runs inline; jobs > n must not spawn idle workers or skip
  // items. Both still produce the full, ordered result vector.
  for (int jobs : {-4, 0, 1, 16}) {
    const std::vector<size_t> results =
        rlharness::RunJobs<size_t>(jobs, 3, [](size_t i) { return i + 1; });
    EXPECT_EQ(results, (std::vector<size_t>{1, 2, 3})) << "jobs=" << jobs;
  }
}

TEST(ParallelRunnerTest, EmptyJobListIsANoOp) {
  const std::vector<int> results =
      rlharness::RunJobs<int>(8, 0, [](size_t) { return 1; });
  EXPECT_TRUE(results.empty());
}

TEST(ParallelRunnerTest, LowestIndexExceptionWinsAndAllJobsRun) {
  for (int jobs : {1, 8}) {
    std::vector<std::atomic<int>> ran(32);
    try {
      rlharness::RunIndexedJobs(jobs, 32, [&ran](size_t i) {
        ran[i].fetch_add(1);
        if (i == 17 || i == 5 || i == 30) {
          throw std::runtime_error("job " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      // Deterministic error surfacing: index 5's exception, regardless of
      // which worker hit its failure first.
      EXPECT_STREQ(e.what(), "job 5") << "jobs=" << jobs;
    }
    for (size_t i = 0; i < ran.size(); ++i) {
      EXPECT_EQ(ran[i].load(), 1) << "index " << i << " jobs=" << jobs;
    }
  }
}

rlsim::Task<int64_t> SleepThenNow(rlsim::Simulator& sim, int64_t us) {
  co_await sim.Sleep(rlsim::Duration::Micros(us));
  co_return sim.now().nanos();
}

rlsim::Task<void> ChainOfChildren(rlsim::Simulator& sim, uint64_t& hash) {
  for (int i = 0; i < 50; ++i) {
    const int64_t us = static_cast<int64_t>(sim.rng().NextBelow(100)) + 1;
    hash = hash * 1099511628211ull ^
           static_cast<uint64_t>(co_await SleepThenNow(sim, us));
  }
}

// A small simulation whose result depends on every coroutine frame it
// allocates and recycles: 32 tasks awaiting 50 child tasks each.
uint64_t SimulationHash(uint64_t seed) {
  rlsim::Simulator sim(seed);
  uint64_t hash = seed;
  for (int t = 0; t < 32; ++t) {
    sim.Spawn(ChainOfChildren(sim, hash));
  }
  sim.Run();
  return hash ^ static_cast<uint64_t>(sim.now().nanos());
}

TEST(ParallelRunnerTest, WorkersReproduceSerialResultsWithRecycledFrames) {
  // Jobs 0/2 and 1/3 share a seed. Each worker thread recycles coroutine
  // frames through its own free lists and returns them to the heap when it
  // exits (a leak there fails the sanitizer build's leak check).
  const auto hashes = [](int jobs) {
    return rlharness::RunJobs<uint64_t>(
        jobs, 4, [](size_t i) { return SimulationHash(i % 2 + 1); });
  };
  const std::vector<uint64_t> parallel = hashes(2);
  EXPECT_EQ(parallel[0], parallel[2]);
  EXPECT_EQ(parallel[1], parallel[3]);
  EXPECT_NE(parallel[0], parallel[1]);
  EXPECT_EQ(parallel, hashes(1));
}

}  // namespace
