// Coroutine synchronisation primitives for the simulator.
//
// All wakeups go through the simulator's event queue (at the current
// timestamp), never by direct resumption, so waiters observe a consistent
// "runs strictly after the notifier's current event" ordering and recursion
// depth stays bounded.
#pragma once

#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

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

// Manual-reset broadcast event.
class SimEvent {
 public:
  explicit SimEvent(Simulator& sim) : waiters_(sim) {}

  bool is_set() const { return set_; }

  void Set() {
    if (set_) {
      return;
    }
    set_ = true;
    waiters_.NotifyAll();
  }

  void Reset() { set_ = false; }

  // Resumes once the event is set. (If the event is reset between the wakeup
  // being scheduled and running, the waiter re-parks — CV discipline.)
  Task<void> Wait() {
    while (!set_) {
      co_await waiters_.Wait();
    }
  }

 private:
  bool set_ = false;
  WaitQueue waiters_;
};

// Counting semaphore.
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial) : sim_(sim), count_(initial) {
    RL_CHECK(initial >= 0);
  }

  auto Acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept {
        if (sem.count_ > 0) {
          --sem.count_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  // Non-blocking acquire attempt.
  bool TryAcquire() {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  void Release() {
    if (!waiters_.empty()) {
      // Hand the permit straight to the oldest waiter.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.Schedule(Duration::Zero(), [h] { h.resume(); });
    } else {
      ++count_;
    }
  }

  int64_t available() const { return count_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  int64_t count_;
  Fifo<std::coroutine_handle<>> waiters_;
};

// FIFO mutex with RAII guard:  auto guard = co_await mutex.Lock();
class SimMutex {
 public:
  explicit SimMutex(Simulator& sim) : sem_(sim, 1) {}

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
        mutex_->sem_.Release();
        mutex_ = nullptr;
      }
    }

   private:
    SimMutex* mutex_ = nullptr;
  };

  // Awaitable returning a Guard that unlocks on destruction.
  Task<Guard> Lock() {
    co_await sem_.Acquire();
    co_return Guard(this);
  }

  bool locked() const { return sem_.available() == 0; }

 private:
  friend class Guard;
  Semaphore sem_;
};

// One-shot future. Complete() must be called exactly once; any number of
// waiters (before or after completion) observe the value.
template <typename T>
class Completion {
  // Completion is one-shot, so the only wakeup a waiter gets is the one
  // Complete() sends: no re-check loop, and no coroutine frame.
  template <bool kCopy>
  struct Awaiter {
    Completion& c;
    bool await_ready() const noexcept { return c.completed(); }
    void await_suspend(std::coroutine_handle<> h) { c.waiters_.Park(h); }
    auto await_resume() const {
      if constexpr (kCopy) {
        return T(c.value());
      } else {
        return &c.value();
      }
    }
  };

 public:
  explicit Completion(Simulator& sim) : waiters_(sim) {}

  bool completed() const { return value_.has_value(); }

  void Complete(T value) {
    RL_CHECK_MSG(!value_.has_value(), "Completion completed twice");
    value_ = std::move(value);
    waiters_.NotifyAll();
  }

  // Awaitable; resumes once completed and yields a pointer to the stored
  // value (the Completion must outlive the use of the pointer).
  Awaiter<false> WaitPtr() { return {*this}; }

  // Convenience: yields a copy of the value.
  Awaiter<true> Wait() { return {*this}; }

  const T& value() const {
    RL_CHECK(value_.has_value());
    return *value_;
  }

 private:
  std::optional<T> value_;
  WaitQueue waiters_;
};

// Bounded FIFO channel. Close() causes Receive() to return nullopt once
// drained; Send() on a closed channel is a programming error.
template <typename T>
class Channel {
 public:
  Channel(Simulator& sim, size_t capacity)
      : capacity_(capacity), senders_(sim), receivers_(sim) {
    RL_CHECK(capacity >= 1);
  }

  Task<void> Send(T item) {
    while (items_.size() >= capacity_) {
      RL_CHECK_MSG(!closed_, "Send on closed channel");
      co_await senders_.Wait();
    }
    RL_CHECK_MSG(!closed_, "Send on closed channel");
    items_.push_back(std::move(item));
    receivers_.NotifyOne();
  }

  // Non-blocking send; returns false if full or closed.
  bool TrySend(T item) {
    if (closed_ || items_.size() >= capacity_) {
      return false;
    }
    items_.push_back(std::move(item));
    receivers_.NotifyOne();
    return true;
  }

  Task<std::optional<T>> Receive() {
    while (items_.empty() && !closed_) {
      co_await receivers_.Wait();
    }
    if (items_.empty()) {
      co_return std::nullopt;  // closed and drained
    }
    T item = std::move(items_.front());
    items_.pop_front();
    senders_.NotifyOne();
    co_return std::optional<T>(std::move(item));
  }

  void Close() {
    closed_ = true;
    receivers_.NotifyAll();
  }

  size_t size() const { return items_.size(); }
  bool closed() const { return closed_; }

 private:
  size_t capacity_;
  bool closed_ = false;
  std::deque<T> items_;
  WaitQueue senders_;
  WaitQueue receivers_;
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

  size_t outstanding() const { return outstanding_; }

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
