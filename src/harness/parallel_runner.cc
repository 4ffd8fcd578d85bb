#include "src/harness/parallel_runner.h"

#include <pthread.h>

#include <atomic>
#include <exception>
#include <system_error>
#include <thread>

namespace rlharness {

namespace {

// Worker stack size. A job may resume long synchronous coroutine chains
// (WAL replay during recovery), and sanitizer instrumentation defeats the
// tail call that symmetric transfer relies on, so those chains use real
// stack. std::thread workers get the platform default whatever `ulimit -s`
// says; the reservation is virtual memory, touched only as deep as a job
// goes.
constexpr size_t kWorkerStackBytes = size_t{256} << 20;

// Runs `body` on `workers` threads with kWorkerStackBytes stacks and joins
// them all. Throws std::system_error if a thread cannot be started (after
// joining the ones that were).
void RunOnWorkers(size_t workers, const std::function<void()>& body) {
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstacksize(&attr, kWorkerStackBytes);
  const auto entry = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  std::vector<pthread_t> pool;
  pool.reserve(workers);
  int error = 0;
  for (size_t w = 0; w < workers && error == 0; ++w) {
    pthread_t thread;
    error = pthread_create(&thread, &attr, entry,
                           const_cast<std::function<void()>*>(&body));
    if (error == 0) {
      pool.push_back(thread);
    }
  }
  pthread_attr_destroy(&attr);
  for (pthread_t thread : pool) {
    pthread_join(thread, nullptr);
  }
  if (error != 0) {
    throw std::system_error(error, std::generic_category(),
                            "starting a parallel-runner worker");
  }
}

}  // namespace

int DefaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void RunIndexedJobs(int jobs, size_t n,
                    const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  const size_t workers =
      std::min(static_cast<size_t>(jobs < 1 ? 1 : jobs), n);

  // One exception slot per job, filled by whichever worker ran it; the
  // lowest-index failure is rethrown after the pool drains, so the surfaced
  // error does not depend on thread scheduling.
  std::vector<std::exception_ptr> errors(n);

  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    std::atomic<size_t> next{0};
    RunOnWorkers(workers, [&next, &errors, &fn, n] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    });
  }

  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }
}

}  // namespace rlharness
