#include "src/db/lock_manager.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

TEST(LockManagerTest, UncontendedAcquire) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(100));
  bool got = false;
  sim.Spawn([](LockManager& l, bool& out) -> Task<void> {
    out = co_await l.Acquire(1, 42);
  }(lm, got));
  sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(lm.held_count(1), 1u);
}

TEST(LockManagerTest, ReentrantForHolder) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(100));
  sim.Spawn([](LockManager& l) -> Task<void> {
    EXPECT_TRUE(co_await l.Acquire(1, 42));
    EXPECT_TRUE(co_await l.Acquire(1, 42));
  }(lm));
  sim.Run();
  EXPECT_EQ(lm.held_count(1), 1u);
}

TEST(LockManagerTest, ContendedWaitsForRelease) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(100));
  TimePoint second_acquired;
  sim.Spawn([](Simulator& s, LockManager& l) -> Task<void> {
    co_await l.Acquire(1, 7);
    co_await s.Sleep(Duration::Millis(5));
    l.ReleaseAll(1);
  }(sim, lm));
  sim.Spawn([](Simulator& s, LockManager& l, TimePoint& out) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    EXPECT_TRUE(co_await l.Acquire(2, 7));
    out = s.now();
  }(sim, lm, second_acquired));
  sim.Run();
  EXPECT_EQ(second_acquired, TimePoint::Origin() + Duration::Millis(5));
  EXPECT_EQ(lm.held_count(2), 1u);
}

TEST(LockManagerTest, FifoHandoff) {
  Simulator sim;
  LockManager lm(sim, Duration::Seconds(10));
  std::vector<int> order;
  sim.Spawn([](Simulator& s, LockManager& l) -> Task<void> {
    co_await l.Acquire(1, 9);
    co_await s.Sleep(Duration::Millis(3));
    l.ReleaseAll(1);
  }(sim, lm));
  for (int i = 2; i <= 5; ++i) {
    sim.Spawn([](Simulator& s, LockManager& l, int id,
                 std::vector<int>& out) -> Task<void> {
      co_await s.Sleep(Duration::Micros(id));  // deterministic queue order
      co_await l.Acquire(static_cast<uint64_t>(id), 9);
      out.push_back(id);
      co_await s.Sleep(Duration::Millis(1));
      l.ReleaseAll(static_cast<uint64_t>(id));
    }(sim, lm, i, order));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 5}));
}

TEST(LockManagerTest, TimeoutReturnsFalse) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(10));
  bool second = true;
  sim.Spawn([](LockManager& l) -> Task<void> {
    co_await l.Acquire(1, 5);
    // Holder never releases.
  }(lm));
  sim.Spawn([](Simulator& s, LockManager& l, bool& out) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    out = co_await l.Acquire(2, 5);
  }(sim, lm, second));
  sim.Run();
  EXPECT_FALSE(second);
  EXPECT_EQ(lm.stats().timeouts.value(), 1);
  EXPECT_EQ(lm.held_count(2), 0u);
}

TEST(LockManagerTest, TimedOutWaiterSkippedOnRelease) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(10));
  bool third = false;
  sim.Spawn([](Simulator& s, LockManager& l) -> Task<void> {
    co_await l.Acquire(1, 5);
    co_await s.Sleep(Duration::Millis(50));  // outlive waiter 2's patience
    l.ReleaseAll(1);
  }(sim, lm));
  sim.Spawn([](Simulator& s, LockManager& l) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    EXPECT_FALSE(co_await l.Acquire(2, 5));  // times out at 11 ms
  }(sim, lm));
  sim.Spawn([](Simulator& s, LockManager& l, bool& out) -> Task<void> {
    co_await s.Sleep(Duration::Millis(45));
    // Acquired at 50 ms when txn 1 releases; inside the 10 ms timeout.
    out = co_await l.Acquire(3, 5);
  }(sim, lm, third));
  sim.Run();
  EXPECT_TRUE(third);
}

TEST(LockManagerTest, ReleaseAtTheTimeoutInstantLeavesNoEntry) {
  // The waiter's timeout fires at 10 ms, and the holder releases at 10 ms
  // too, after the timeout but before the timed-out waiter resumes: the
  // release pops the waiter and erases the entry. The waiter's clean-up
  // must not bring the entry back.
  Simulator sim;
  LockManager lm(sim, Duration::Millis(10));
  bool waiter_got = true;
  sim.Spawn([](Simulator& s, LockManager& l, bool& out) -> Task<void> {
    co_await l.Acquire(1, 5);
    s.Spawn([](LockManager& l2, bool& o) -> Task<void> {
      o = co_await l2.Acquire(2, 5);  // its timeout is due at 10 ms
    }(l, out));
    // Scheduled after the waiter's timeout, for the same instant.
    co_await s.Sleep(Duration::Micros(1));
    co_await s.Sleep(Duration::Millis(10) - Duration::Micros(1));
    l.ReleaseAll(1);
  }(sim, lm, waiter_got));
  sim.Run();
  EXPECT_EQ(sim.now(), TimePoint::Origin() + Duration::Millis(10));
  EXPECT_FALSE(waiter_got);
  EXPECT_EQ(lm.stats().timeouts.value(), 1);
  EXPECT_EQ(lm.entry_count(), 0u);
}

TEST(LockManagerTest, DeadlockBrokenByTimeout) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(20));
  int timeouts = 0;
  int successes = 0;
  // Classic AB-BA deadlock.
  sim.Spawn([](Simulator& s, LockManager& l, int& to, int& ok) -> Task<void> {
    co_await l.Acquire(1, 100);
    co_await s.Sleep(Duration::Millis(1));
    if (co_await l.Acquire(1, 200)) {
      ++ok;
    } else {
      ++to;
    }
    l.ReleaseAll(1);
  }(sim, lm, timeouts, successes));
  sim.Spawn([](Simulator& s, LockManager& l, int& to, int& ok) -> Task<void> {
    co_await l.Acquire(2, 200);
    co_await s.Sleep(Duration::Millis(1));
    if (co_await l.Acquire(2, 100)) {
      ++ok;
    } else {
      ++to;
    }
    l.ReleaseAll(2);
  }(sim, lm, timeouts, successes));
  sim.Run();
  // At least one side timed out, and afterwards both locks are free.
  EXPECT_GE(timeouts, 1);
  bool free = false;
  sim.Spawn([](LockManager& l, bool& out) -> Task<void> {
    out = co_await l.Acquire(3, 100) && co_await l.Acquire(3, 200);
    l.ReleaseAll(3);
  }(lm, free));
  sim.Run();
  EXPECT_TRUE(free);
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  Simulator sim;
  LockManager lm(sim, Duration::Millis(100));
  sim.Spawn([](LockManager& l) -> Task<void> {
    for (uint64_t k = 0; k < 10; ++k) {
      co_await l.Acquire(1, k);
    }
    EXPECT_EQ(l.held_count(1), 10u);
    l.ReleaseAll(1);
    EXPECT_EQ(l.held_count(1), 0u);
    // Another txn can take them all immediately.
    for (uint64_t k = 0; k < 10; ++k) {
      EXPECT_TRUE(co_await l.Acquire(2, k));
    }
  }(lm));
  sim.Run();
}

TEST(LockManagerTest, FifoHandoffBeyondQueueCapacityWithATimeout) {
  // Seven waiters queue behind a long holder (more than the wait queue's
  // initial capacity of 4); the first of them times out while queued, three
  // more arrive while the rest are being handed the lock one by one. The
  // grants must follow arrival order, skipping only the timed-out waiter.
  Simulator sim;
  LockManager lm(sim, Duration::Millis(5));
  std::vector<int> granted;
  bool first_waiter_got_lock = true;
  sim.Spawn([](Simulator& s, LockManager& l) -> Task<void> {
    EXPECT_TRUE(co_await l.Acquire(1, 9));
    co_await s.Sleep(Duration::Millis(8));
    l.ReleaseAll(1);
  }(sim, lm));
  sim.Spawn([](Simulator& s, LockManager& l, bool& got) -> Task<void> {
    co_await s.Sleep(Duration::Micros(2));
    got = co_await l.Acquire(2, 9);  // queued 0.002 ms, times out at 5.002
  }(sim, lm, first_waiter_got_lock));
  const auto waiter = [](Simulator& s, LockManager& l, int id,
                         Duration arrive,
                         std::vector<int>& out) -> Task<void> {
    co_await s.Sleep(arrive);
    if (co_await l.Acquire(static_cast<uint64_t>(id), 9)) {
      out.push_back(id);
      co_await s.Sleep(Duration::Micros(100));
      l.ReleaseAll(static_cast<uint64_t>(id));
    }
  };
  for (int id = 3; id <= 8; ++id) {
    sim.Spawn(waiter(sim, lm, id, Duration::Millis(4) + Duration::Micros(id),
                     granted));
  }
  for (int id = 9; id <= 11; ++id) {
    sim.Spawn(waiter(sim, lm, id,
                     Duration::Millis(8) + Duration::Micros(40 + id),
                     granted));
  }
  sim.Run();
  EXPECT_FALSE(first_waiter_got_lock);
  EXPECT_EQ(granted, (std::vector<int>{3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(lm.stats().timeouts.value(), 1);
  EXPECT_EQ(lm.held_count(11), 0u);
}

}  // namespace
}  // namespace rldb
