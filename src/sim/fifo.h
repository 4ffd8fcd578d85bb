// FIFO queue over a power-of-two ring buffer that allocates nothing until
// its first push. libstdc++'s std::deque allocates on construction, and wait
// queues and lock entries are built far more often than they queue anyone:
// one per IPC reply, per pool miss, per locked key.
//
// Capacity starts at kInitialCapacity on the first push, doubles when full,
// and is kept when the queue drains. A popped or erased slot is reset to
// T{}, so a queued shared_ptr is released when it leaves the queue.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/sim/check.h"

namespace rlsim {

template <typename T>
class Fifo {
 public:
  static constexpr size_t kInitialCapacity = 4;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Element `i` places from the front (0 = front).
  T& operator[](size_t i) { return slots_[Slot(i)]; }
  T& front() { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == slots_.size()) {
      Grow();
    }
    slots_[Slot(size_)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    RL_CHECK(size_ > 0);
    slots_[head_] = T{};
    head_ = Slot(1);
    --size_;
  }

  // Removes element `i`; the elements behind it keep their order.
  void erase(size_t i) {
    RL_CHECK(i < size_);
    for (size_t j = i; j + 1 < size_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    (*this)[size_ - 1] = T{};
    --size_;
  }

 private:
  size_t Slot(size_t i) const { return (head_ + i) & (slots_.size() - 1); }

  void Grow() {
    std::vector<T> bigger(slots_.empty() ? kInitialCapacity
                                         : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move((*this)[i]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace rlsim
