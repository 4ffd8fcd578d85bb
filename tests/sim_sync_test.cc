#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace rlsim {
namespace {

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int max_concurrent = 0;
  for (int i = 0; i < 8; ++i) {
    sim.Spawn([](Simulator& s, Semaphore& sm, int& cur, int& mx) -> Task<void> {
      co_await sm.Acquire();
      ++cur;
      mx = std::max(mx, cur);
      co_await s.Sleep(Duration::Millis(1));
      --cur;
      sm.Release();
    }(sim, sem, concurrent, max_concurrent));
  }
  sim.Run();
  EXPECT_EQ(max_concurrent, 2);
  EXPECT_EQ(sem.available(), 2);
}

TEST(SemaphoreTest, TryAcquire) {
  Simulator sim;
  Semaphore sem(sim, 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

TEST(SimMutexTest, MutualExclusionAndFifo) {
  Simulator sim;
  SimMutex mutex(sim);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn([](Simulator& s, SimMutex& m, std::vector<int>& o,
                 int id) -> Task<void> {
      auto guard = co_await m.Lock();
      o.push_back(id);
      co_await s.Sleep(Duration::Millis(1));
      o.push_back(id);
    }(sim, mutex, order, i));
  }
  sim.Run();
  ASSERT_EQ(order.size(), 10u);
  // Entries come in adjacent pairs: no interleaving inside the critical
  // section, and FIFO admission order.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(2 * i)], i);
    EXPECT_EQ(order[static_cast<size_t>(2 * i + 1)], i);
  }
  EXPECT_FALSE(mutex.locked());
}

TEST(SimMutexTest, GuardReleasesEarly) {
  Simulator sim;
  SimMutex mutex(sim);
  sim.Spawn([](SimMutex& m) -> Task<void> {
    auto guard = co_await m.Lock();
    guard.Release();
    // Re-acquirable immediately after release.
    auto guard2 = co_await m.Lock();
  }(mutex));
  sim.Run();
  EXPECT_FALSE(mutex.locked());
}

TEST(CompletionTest, WaiterGetsValue) {
  Simulator sim;
  Completion<int> done(sim);
  int got = 0;
  sim.Spawn([](Completion<int>& c, int& out) -> Task<void> {
    out = co_await c.Wait();
  }(done, got));
  sim.Schedule(Duration::Millis(3), [&] { done.Complete(77); });
  sim.Run();
  EXPECT_EQ(got, 77);
  EXPECT_TRUE(done.completed());
  EXPECT_EQ(done.value(), 77);
}

TEST(CompletionTest, LateWaiterSeesValueImmediately) {
  Simulator sim;
  Completion<std::string> done(sim);
  done.Complete("ready");
  std::string got;
  sim.Spawn([](Completion<std::string>& c, std::string& out) -> Task<void> {
    out = co_await c.Wait();
  }(done, got));
  sim.Run();
  EXPECT_EQ(got, "ready");
}

TEST(CompletionTest, DoubleCompleteFails) {
  Simulator sim;
  Completion<int> done(sim);
  done.Complete(1);
  EXPECT_THROW(done.Complete(2), CheckFailure);
}

TEST(TaskGroupTest, JoinWaitsForAll) {
  Simulator sim;
  TaskGroup group(sim);
  int completed = 0;
  TimePoint join_time;
  for (int i = 1; i <= 4; ++i) {
    group.Spawn([](Simulator& s, int ms, int& done) -> Task<void> {
      co_await s.Sleep(Duration::Millis(ms));
      ++done;
    }(sim, i, completed));
  }
  sim.Spawn([](Simulator& s, TaskGroup& g, TimePoint& out) -> Task<void> {
    co_await g.Join();
    out = s.now();
  }(sim, group, join_time));
  sim.Run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(join_time, TimePoint::Origin() + Duration::Millis(4));
}

TEST(TaskGroupTest, ChildExceptionRethrownAtJoin) {
  Simulator sim;
  TaskGroup group(sim);
  group.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    throw std::runtime_error("child failed");
  }(sim));
  bool caught = false;
  sim.Spawn([](TaskGroup& g, bool& c) -> Task<void> {
    try {
      co_await g.Join();
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(group, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

TEST(WaitQueueTest, NotifyOneWakesSingleWaiter) {
  Simulator sim;
  WaitQueue wq(sim);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](WaitQueue& q, int& w) -> Task<void> {
      co_await q.Wait();
      ++w;
    }(wq, woken));
  }
  sim.Schedule(Duration::Millis(1), [&] { wq.NotifyOne(); });
  sim.Run();
  EXPECT_EQ(woken, 1);
  EXPECT_EQ(wq.waiter_count(), 2u);
  wq.NotifyAll();
  sim.Run();
  EXPECT_EQ(woken, 3);
}

TEST(WaitQueueTest, FifoWakeOrderAcrossWrapAndGrowth) {
  // Waiters queue in a ring that starts at Fifo's initial capacity (4):
  // six waiters grow it to 8, five wakeups move its head to slot 5, eight
  // more waiters wrap it around and then grow it again. Wakeups must still
  // come out in arrival order.
  Simulator sim;
  WaitQueue wq(sim);
  std::vector<int> order;
  const auto waiter = [](WaitQueue& q, int id,
                         std::vector<int>& out) -> Task<void> {
    co_await q.Wait();
    out.push_back(id);
  };
  for (int id = 0; id < 6; ++id) {
    sim.Spawn(waiter(wq, id, order));
  }
  for (int i = 0; i < 5; ++i) {
    wq.NotifyOne();
  }
  for (int id = 6; id < 14; ++id) {
    sim.Spawn(waiter(wq, id, order));
  }
  EXPECT_EQ(wq.waiter_count(), 9u);
  sim.Schedule(Duration::Millis(1), [&] { wq.NotifyAll(); });
  sim.Run();
  std::vector<int> expected;
  for (int id = 0; id < 14; ++id) {
    expected.push_back(id);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(wq.waiter_count(), 0u);
}

TEST(FifoTest, EraseKeepsTheOrderOfTheRest) {
  Fifo<int> q;
  for (int i = 0; i < 3; ++i) {
    q.push_back(i);
  }
  q.pop_front();
  for (int i = 3; i < 7; ++i) {
    q.push_back(i);  // wraps, then grows
  }
  q.erase(2);  // drops 3
  std::vector<int> rest;
  while (!q.empty()) {
    rest.push_back(q.front());
    q.pop_front();
  }
  EXPECT_EQ(rest, (std::vector<int>{1, 2, 4, 5, 6}));
}

}  // namespace
}  // namespace rlsim
