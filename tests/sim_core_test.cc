#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <stdexcept>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/task.h"

namespace rlsim {
namespace {

TEST(SimulatorTest, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::Origin());
}

TEST(SimulatorTest, ScheduleAdvancesClock) {
  Simulator sim;
  TimePoint seen;
  sim.Schedule(Duration::Millis(5), [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Millis(5));
}

TEST(SimulatorTest, EventsRunInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Millis(3), [&] { order.push_back(3); });
  sim.Schedule(Duration::Millis(1), [&] { order.push_back(1); });
  sim.Schedule(Duration::Millis(2), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Millis(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] {
    sim.Schedule(Duration::Millis(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().nanos(), Duration::Millis(2).nanos());
}

TEST(SimulatorTest, SchedulingInThePastFails) {
  Simulator sim;
  EXPECT_THROW(sim.Schedule(Duration::Millis(-1), [] {}), CheckFailure);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] { ++fired; });
  sim.Schedule(Duration::Millis(10), [&] { ++fired; });
  sim.RunUntil(TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Millis(5));
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Millis(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Duration::Millis(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
}

Task<int> Return42() { co_return 42; }

Task<int> AddOne(Simulator& sim) {
  co_await sim.Sleep(Duration::Millis(1));
  const int v = co_await Return42();
  co_return v + 1;
}

TEST(SimulatorTest, SpawnedTaskRunsAndCompletes) {
  Simulator sim;
  int result = 0;
  sim.Spawn([](Simulator& s, int& out) -> Task<void> {
    out = co_await AddOne(s);
  }(sim, result));
  sim.Run();
  EXPECT_EQ(result, 43);
  EXPECT_EQ(sim.pending_tasks(), 0u);
}

TEST(SimulatorTest, SleepAdvancesVirtualTimeOnly) {
  Simulator sim;
  TimePoint woke;
  sim.Spawn([](Simulator& s, TimePoint& out) -> Task<void> {
    co_await s.Sleep(Duration::Seconds(3600));
    out = s.now();
  }(sim, woke));
  sim.Run();
  EXPECT_EQ(woke, TimePoint::Origin() + Duration::Seconds(3600));
}

TEST(SimulatorTest, ZeroSleepYields) {
  Simulator sim;
  std::vector<int> order;
  // Spawn starts the task synchronously: it records 1 and parks its wakeup
  // behind the already-queued event recording 2.
  sim.Schedule(Duration::Zero(), [&] { order.push_back(2); });
  sim.Spawn([](Simulator& s, std::vector<int>& o) -> Task<void> {
    o.push_back(1);
    co_await s.Sleep(Duration::Zero());
    o.push_back(3);
  }(sim, order));
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ManyInterleavedTasks) {
  Simulator sim;
  int total = 0;
  for (int i = 0; i < 100; ++i) {
    sim.Spawn([](Simulator& s, int delay, int& sum) -> Task<void> {
      for (int k = 0; k < 10; ++k) {
        co_await s.Sleep(Duration::Micros(delay));
        ++sum;
      }
    }(sim, i + 1, total));
  }
  sim.Run();
  EXPECT_EQ(total, 1000);
}

TEST(SimulatorTest, TaskExceptionPropagatesFromRun) {
  Simulator sim;
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    throw std::runtime_error("boom");
  }(sim));
  EXPECT_THROW(sim.Run(), std::runtime_error);
}

TEST(SimulatorTest, FirstFailedRootInSpawnOrderIsRethrownAndKept) {
  Simulator sim;
  const auto fail_after = [](Simulator& s, int64_t ms,
                             const char* what) -> Task<void> {
    co_await s.Sleep(Duration::Millis(ms));
    throw std::runtime_error(what);
  };
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
  }(sim));
  sim.Spawn(fail_after(sim, 2, "first"));
  sim.Spawn(fail_after(sim, 1, "second"));
  try {
    sim.Run();
    ADD_FAILURE() << "Run() did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // The failed root stays registered: the next Run() reports it again.
  EXPECT_THROW(sim.Run(), std::runtime_error);
}

TEST(SimulatorTest, AwaitedTaskExceptionReachesParent) {
  Simulator sim;
  bool caught = false;
  sim.Spawn([](Simulator& s, bool& c) -> Task<void> {
    try {
      co_await [](Simulator& s2) -> Task<void> {
        co_await s2.Sleep(Duration::Millis(1));
        throw std::runtime_error("child boom");
      }(s);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run_once = [](uint64_t seed) {
    Simulator sim(seed);
    std::vector<int64_t> trace;
    for (int i = 0; i < 10; ++i) {
      sim.Spawn([](Simulator& s, std::vector<int64_t>& t) -> Task<void> {
        Rng rng = s.rng().Fork();
        for (int k = 0; k < 20; ++k) {
          co_await s.Sleep(Duration::Micros(rng.UniformInt(1, 50)));
          t.push_back(s.now().nanos());
        }
      }(sim, trace));
    }
    sim.Run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(SimulatorTest, RunReturnsEventCount) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Duration::Millis(i + 1), [] {});
  }
  EXPECT_EQ(sim.Run(), 5u);
}

// --- Coroutine frame pool -----------------------------------------------------

TEST(FramePoolTest, FramesRecycleBySizeClass) {
  namespace fp = frame_pool;
  // 130 and 190 bytes share the 129..192-byte class; 200 is in the next.
  void* frame = fp::Allocate(130);
  const size_t parked = fp::parked(130);
  fp::Free(frame, 130);
  EXPECT_EQ(fp::parked(190), parked + 1);
  EXPECT_EQ(fp::parked(200), fp::parked(256));
  EXPECT_EQ(fp::Allocate(190), frame);  // same class: the parked frame
  EXPECT_EQ(fp::parked(130), parked);
  void* other = fp::Allocate(200);
  EXPECT_NE(other, frame);
  fp::Free(other, 200);
  fp::Free(frame, 190);

  // Frames above kMaxPooledBytes never park.
  fp::Free(fp::Allocate(fp::kMaxPooledBytes + 1), fp::kMaxPooledBytes + 1);
  EXPECT_EQ(fp::parked(fp::kMaxPooledBytes + 1), 0u);
}

TEST(FramePoolTest, EachClassParksAtMostItsCap) {
  namespace fp = frame_pool;
  constexpr size_t kBytes = 20 * fp::kClassBytes;
  std::vector<void*> frames;
  for (size_t i = 0; i < fp::kMaxParkedPerClass + 5; ++i) {
    frames.push_back(fp::Allocate(kBytes));
  }
  for (void* frame : frames) {
    fp::Free(frame, kBytes);
  }
  EXPECT_EQ(fp::parked(kBytes), fp::kMaxParkedPerClass);
}

// Suspends without yielding and records the suspended coroutine's frame.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

TEST(FramePoolTest, FinishedTaskFrameServesTheNextTask) {
  const auto task = [](void** out) -> Task<void> {
    co_await FrameAddress{out};
  };
  void* first = nullptr;
  void* second = nullptr;
  const uint64_t before = frame_pool::allocations();
  {
    Simulator sim;
    sim.Spawn(task(&first));
    sim.Run();
  }
  {
    Simulator sim;
    sim.Spawn(task(&second));
    sim.Run();
  }
  EXPECT_EQ(frame_pool::allocations() - before, 2u);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(second, first);
}

}  // namespace
}  // namespace rlsim
