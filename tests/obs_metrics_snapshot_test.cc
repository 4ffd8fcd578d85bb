#include "src/obs/metrics_snapshot.h"

#include <gtest/gtest.h>

#include <string>

#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace rlobs {
namespace {

using rlsim::Counter;
using rlsim::Duration;
using rlsim::Simulator;

TEST(MetricsSnapshotTest, SamplesAtFixedVirtualIntervals) {
  Simulator sim;
  Counter ticks;
  rlsim::StatsRegistry registry;
  registry.RegisterCounter("ticks", &ticks);

  MetricsSnapshotter snap(sim, registry, Duration::Millis(10));
  snap.Start();

  // A workload that bumps the counter every 4 ms and stops at 35 ms.
  for (int i = 1; i <= 8; ++i) {
    sim.Schedule(Duration::Millis(4 * i), [&] { ticks.Add(); });
  }
  sim.Schedule(Duration::Millis(35), [&] { snap.Stop(); });
  sim.Run();

  // Snapshots at 10/20/30 ms; the 40 ms tick sees Stop() and exits.
  ASSERT_EQ(snap.snapshots().size(), 3u);
  EXPECT_EQ(snap.snapshots()[0].at_ns, Duration::Millis(10).nanos());
  EXPECT_EQ(snap.snapshots()[1].at_ns, Duration::Millis(20).nanos());
  EXPECT_EQ(snap.snapshots()[2].at_ns, Duration::Millis(30).nanos());
  // Each snapshot captured the counter as of its instant: 2, 5, 7 ticks.
  EXPECT_NE(snap.snapshots()[0].json.find("\"ticks\":2"), std::string::npos);
  EXPECT_NE(snap.snapshots()[1].json.find("\"ticks\":5"), std::string::npos);
  EXPECT_NE(snap.snapshots()[2].json.find("\"ticks\":7"), std::string::npos);
}

TEST(MetricsSnapshotTest, StopBeforeFirstTickYieldsEmptySeries) {
  Simulator sim;
  rlsim::StatsRegistry registry;
  MetricsSnapshotter snap(sim, registry, Duration::Millis(10));
  snap.Start();
  sim.Schedule(Duration::Millis(1), [&] { snap.Stop(); });
  sim.Run();
  EXPECT_TRUE(snap.snapshots().empty());
  EXPECT_EQ(snap.ToJson(), "[\n]");
}

// Stop() ends the loop at its next tick: that tick records nothing and the
// loop schedules no tick after it, so the simulator's queue drains there.
TEST(MetricsSnapshotTest, StopEndsTheLoopAtItsNextTick) {
  Simulator sim;
  rlsim::StatsRegistry registry;
  MetricsSnapshotter snap(sim, registry, Duration::Millis(10));
  snap.Start();
  sim.Schedule(Duration::Millis(25), [&] { snap.Stop(); });
  sim.Run();
  ASSERT_EQ(snap.snapshots().size(), 2u);
  EXPECT_EQ(snap.snapshots()[1].at_ns, Duration::Millis(20).nanos());
  EXPECT_EQ(sim.now().nanos(), Duration::Millis(30).nanos());
}

TEST(MetricsSnapshotTest, ToJsonWrapsSnapshotsWithTimestamps) {
  Simulator sim;
  Counter c;
  rlsim::StatsRegistry registry;
  registry.RegisterCounter("c", &c);
  MetricsSnapshotter snap(sim, registry, Duration::Millis(5));
  snap.Start();
  sim.Schedule(Duration::Millis(12), [&] { snap.Stop(); });
  sim.Run();

  const std::string json = snap.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("{\"t_ns\":5000000,\"stats\":{\"c\":0}}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"t_ns\":10000000,\"stats\":{\"c\":0}}"),
            std::string::npos);
}

// The same seeded run with and without a snapshotter attached must leave the
// observed state identical: sampling is passive.
TEST(MetricsSnapshotTest, SamplingDoesNotPerturbTheRun) {
  auto run = [](bool with_snapshotter) {
    Simulator sim(99);
    Counter work;
    rlsim::StatsRegistry registry;
    registry.RegisterCounter("work", &work);
    MetricsSnapshotter snap(sim, registry, Duration::Millis(3));
    if (with_snapshotter) {
      snap.Start();
    }
    for (int i = 1; i <= 50; ++i) {
      sim.Schedule(Duration::Millis(i), [&sim, &work] {
        work.Add(static_cast<int64_t>(sim.rng().Next() % 7));
      });
    }
    sim.Schedule(Duration::Millis(51), [&] { snap.Stop(); });
    sim.Run();
    return work.value();
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace rlobs
