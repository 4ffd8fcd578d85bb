// Coroutine task type for the discrete-event simulator.
//
// Task<T> is a lazily-started coroutine. Awaiting a Task starts it and
// suspends the awaiter until the task completes; the task's return value (or
// exception) is propagated to the awaiter. Root tasks are handed to
// Simulator::Spawn, which starts them and owns their frames.
//
// The whole simulation is single-threaded, so no synchronisation is needed
// anywhere in this file.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <utility>
#include <variant>

#include "src/sim/check.h"

namespace rlsim {

template <typename T>
class Task;

// Coroutine frame recycling. A simulation allocates and frees a frame for
// every awaited call, so frames come from per-thread free lists, one per
// 64-byte size class, instead of malloc. Each list parks at most
// kMaxParkedPerClass frames (so at most 256 KiB for the largest class); a
// frame beyond that, or larger than kMaxPooledBytes, goes back to the heap.
// The lists are returned to the heap when their thread exits. Under
// AddressSanitizer a parked frame is poisoned, so a use after free still
// faults.
namespace frame_pool {

inline constexpr size_t kClassBytes = 64;
inline constexpr size_t kMaxPooledBytes = 4096;
inline constexpr size_t kMaxParkedPerClass = 64;

void* Allocate(size_t bytes);
void Free(void* frame, size_t bytes) noexcept;

// Frames allocated on the calling thread so far, recycled or not.
uint64_t allocations();
// Frames of `bytes`' size class parked on the calling thread's free list.
size_t parked(size_t bytes);

}  // namespace frame_pool

namespace internal {

class TaskPromiseBase {
 public:
  static void* operator new(size_t bytes) {
    return frame_pool::Allocate(bytes);
  }
  static void operator delete(void* frame, size_t bytes) noexcept {
    frame_pool::Free(frame, bytes);
  }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }

    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      // Symmetric transfer to whoever awaited this task, if anyone.
      auto continuation = h.promise().continuation_;
      return continuation ? continuation : std::noop_coroutine();
    }

    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }

  void set_continuation(std::coroutine_handle<> h) noexcept {
    continuation_ = h;
  }

 protected:
  std::coroutine_handle<> continuation_;
};

}  // namespace internal

// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal::TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }

    void return_value(T value) {
      result_.template emplace<1>(std::move(value));
    }

    void unhandled_exception() {
      result_.template emplace<2>(std::current_exception());
    }

    T TakeResult() {
      if (result_.index() == 2) {
        std::rethrow_exception(std::get<2>(result_));
      }
      RL_CHECK_MSG(result_.index() == 1, "task awaited before completion");
      return std::move(std::get<1>(result_));
    }

    std::variant<std::monostate, T, std::exception_ptr> result_;
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  // Starts a detached task. Only Simulator::Spawn should call this; awaited
  // tasks are started by the awaiter via symmetric transfer.
  void Start() {
    RL_CHECK(handle_ && !handle_.done());
    handle_.resume();
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }

      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().set_continuation(awaiting);
        return handle;  // start the child
      }

      T await_resume() { return handle.promise().TakeResult(); }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

// Specialisation for tasks with no result.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : internal::TaskPromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }

    void return_void() {}

    void unhandled_exception() { exception_ = std::current_exception(); }

    void TakeResult() {
      if (exception_) {
        std::rethrow_exception(exception_);
      }
    }

    std::exception_ptr exception_;
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return !handle_ || handle_.done(); }

  void Start() {
    RL_CHECK(handle_ && !handle_.done());
    handle_.resume();
  }

  // True once the task has ended with an uncaught exception.
  bool failed() const {
    return handle_ && handle_.done() && handle_.promise().exception_;
  }

  // Rethrows the task's exception, if it ended with one. Only meaningful
  // once done().
  void Rethrow() {
    if (handle_) {
      handle_.promise().TakeResult();
    }
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> handle;

      bool await_ready() const noexcept { return !handle || handle.done(); }

      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> awaiting) noexcept {
        handle.promise().set_continuation(awaiting);
        return handle;
      }

      void await_resume() { handle.promise().TakeResult(); }
    };
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace rlsim
