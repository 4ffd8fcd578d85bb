// Coroutine synchronisation primitives for the simulator.
//
// All wakeups go through the simulator's event queue (at the current
// timestamp), never by direct resumption, so waiters observe a consistent
// "runs strictly after the notifier's current event" ordering and recursion
// depth stays bounded.
#pragma once

#include <coroutine>
#include <cstddef>
#include <optional>
#include <string_view>
#include <utility>

#include "src/sim/check.h"
#include "src/sim/fifo.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace rlsim {

// Condition-variable-like queue of suspended coroutines. Waiters must
// re-check their predicate after waking (standard CV discipline):
//
//   while (!predicate) { co_await queue.Wait(); }
class WaitQueue {
 public:
  explicit WaitQueue(Simulator& sim) : sim_(sim) {}

  auto Wait() {
    struct Awaiter {
      WaitQueue& queue;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { queue.Park(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // Queues a suspended coroutine, for awaiters built on this queue.
  void Park(std::coroutine_handle<> h) { waiters_.push_back(h); }

  void NotifyOne() {
    if (waiters_.empty()) {
      return;
    }
    auto h = waiters_.front();
    waiters_.pop_front();
    sim_.Schedule(Duration::Zero(), [h] { h.resume(); });
  }

  void NotifyAll() {
    while (!waiters_.empty()) {
      NotifyOne();
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  Fifo<std::coroutine_handle<>> waiters_;
};

// FIFO mutex with RAII guard:  auto guard = co_await mutex.Lock();
// Unlocking hands the mutex straight to the oldest waiter, which resumes
// through a zero-delay event.
class SimMutex {
 public:
  explicit SimMutex(Simulator& sim) : waiters_(sim) {}

  class Guard {
   public:
    Guard() = default;
    explicit Guard(SimMutex* mutex) : mutex_(mutex) {}
    Guard(Guard&& other) noexcept
        : mutex_(std::exchange(other.mutex_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        Release();
        mutex_ = std::exchange(other.mutex_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;
    ~Guard() { Release(); }

    void Release() {
      if (mutex_ != nullptr) {
        mutex_->Unlock();
        mutex_ = nullptr;
      }
    }

   private:
    SimMutex* mutex_ = nullptr;
  };

  // Awaitable returning a Guard that unlocks on destruction.
  Task<Guard> Lock() {
    struct Awaiter {
      SimMutex& mutex;
      bool await_ready() const noexcept {
        if (mutex.locked_) return false;
        mutex.locked_ = true;
        return true;
      }
      void await_suspend(std::coroutine_handle<> h) { mutex.waiters_.Park(h); }
      void await_resume() const noexcept {}
    };
    co_await Awaiter{*this};
    co_return Guard(this);
  }

  bool locked() const { return locked_; }

 private:
  void Unlock() {
    if (waiters_.waiter_count() > 0) {
      waiters_.NotifyOne();  // the mutex stays locked, now for the waiter
    } else {
      locked_ = false;
    }
  }

  bool locked_ = false;
  WaitQueue waiters_;
};

// One-shot future. Complete() must be called exactly once; any number of
// waiters (before or after completion) observe the value.
template <typename T>
class Completion {
  // Completion is one-shot, so the only wakeup a waiter gets is the one
  // Complete() sends: no re-check loop, and no coroutine frame.
  struct Awaiter {
    Completion& c;
    bool await_ready() const noexcept { return c.completed(); }
    void await_suspend(std::coroutine_handle<> h) { c.waiters_.Park(h); }
    T await_resume() const { return c.value(); }
  };

 public:
  explicit Completion(Simulator& sim) : waiters_(sim) {}

  bool completed() const { return value_.has_value(); }

  void Complete(T value) {
    RL_CHECK_MSG(!value_.has_value(), "Completion completed twice");
    value_ = std::move(value);
    waiters_.NotifyAll();
  }

  // Awaitable; resumes once completed and yields a copy of the value.
  Awaiter Wait() { return {*this}; }

  const T& value() const {
    RL_CHECK(value_.has_value());
    return *value_;
  }

 private:
  std::optional<T> value_;
  WaitQueue waiters_;
};

// Fork/join helper: spawn N child tasks, then `co_await group.Join()`.
// The first child exception (if any) is rethrown from Join().
class TaskGroup {
 public:
  explicit TaskGroup(Simulator& sim) : sim_(sim), done_(sim) {}

  void Spawn(Task<void> task, std::string_view name = "group-task") {
    ++outstanding_;
    sim_.Spawn(Wrap(std::move(task)), name);
  }

  Task<void> Join() {
    while (outstanding_ > 0) {
      co_await done_.Wait();
    }
    if (first_exception_) {
      std::rethrow_exception(first_exception_);
    }
  }

 private:
  Task<void> Wrap(Task<void> inner) {
    try {
      co_await std::move(inner);
    } catch (...) {
      if (!first_exception_) {
        first_exception_ = std::current_exception();
      }
    }
    --outstanding_;
    done_.NotifyAll();
  }

  Simulator& sim_;
  WaitQueue done_;
  size_t outstanding_ = 0;
  std::exception_ptr first_exception_;
};

}  // namespace rlsim
