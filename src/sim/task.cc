#include "src/sim/task.h"

#if defined(__SANITIZE_ADDRESS__)
#define RL_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RL_FRAME_POOL_ASAN 1
#endif
#endif

#ifdef RL_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace rlsim::frame_pool {

namespace {

constexpr size_t kClasses = kMaxPooledBytes / kClassBytes;

struct ParkedFrame {
  ParkedFrame* next;
};

// Trivially destructible, so it stays usable while the thread's other
// thread-local and static objects are destroyed; ThreadReaper empties it.
struct ThreadLists {
  ParkedFrame* heads[kClasses];
  size_t counts[kClasses];
  uint64_t allocations;
  bool reaper_armed;
  bool closed;  // the thread is exiting: frames go straight to the heap
};

constinit thread_local ThreadLists t_lists{};

size_t ClassOf(size_t bytes) { return (bytes - 1) / kClassBytes; }
size_t ClassBytes(size_t cls) { return (cls + 1) * kClassBytes; }

// The link word stays addressable; the rest of a parked frame does not.
void Park(ParkedFrame* frame, size_t cls) {
#ifdef RL_FRAME_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(reinterpret_cast<char*>(frame) + sizeof(*frame),
                            ClassBytes(cls) - sizeof(*frame));
#else
  (void)frame;
  (void)cls;
#endif
}

void Unpark(ParkedFrame* frame, size_t cls) {
#ifdef RL_FRAME_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(frame, ClassBytes(cls));
#else
  (void)frame;
  (void)cls;
#endif
}

struct ThreadReaper {
  bool armed = false;
  ~ThreadReaper() {
    t_lists.closed = true;
    for (size_t cls = 0; cls < kClasses; ++cls) {
      while (ParkedFrame* frame = t_lists.heads[cls]) {
        t_lists.heads[cls] = frame->next;
        Unpark(frame, cls);
        ::operator delete(frame);
      }
      t_lists.counts[cls] = 0;
    }
  }
};

// rapicheck: static-ok (parked frame memory: no simulation reads it)
thread_local ThreadReaper t_reaper;

}  // namespace

void* Allocate(size_t bytes) {
  ThreadLists& lists = t_lists;
  ++lists.allocations;
  if (bytes == 0 || bytes > kMaxPooledBytes) {
    return ::operator new(bytes);
  }
  // Always the full class size: whichever thread frees it may park it.
  const size_t cls = ClassOf(bytes);
  if (ParkedFrame* frame = lists.closed ? nullptr : lists.heads[cls]) {
    lists.heads[cls] = frame->next;
    --lists.counts[cls];
    Unpark(frame, cls);
    return frame;
  }
  return ::operator new(ClassBytes(cls));
}

void Free(void* frame, size_t bytes) noexcept {
  ThreadLists& lists = t_lists;
  if (frame == nullptr) {
    return;
  }
  const size_t cls = ClassOf(bytes);
  if (bytes == 0 || bytes > kMaxPooledBytes || lists.closed ||
      lists.counts[cls] >= kMaxParkedPerClass) {
    ::operator delete(frame);
    return;
  }
  if (!lists.reaper_armed) {
    lists.reaper_armed = true;
    t_reaper.armed = true;  // registers the reaper for this thread's exit
  }
  auto* parked = static_cast<ParkedFrame*>(frame);
  parked->next = lists.heads[cls];
  lists.heads[cls] = parked;
  ++lists.counts[cls];
  Park(parked, cls);
}

uint64_t allocations() { return t_lists.allocations; }

size_t parked(size_t bytes) {
  if (bytes == 0 || bytes > kMaxPooledBytes) {
    return 0;
  }
  return t_lists.counts[ClassOf(bytes)];
}

}  // namespace rlsim::frame_pool
