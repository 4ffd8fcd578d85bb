#include "src/db/lock_manager.h"

#include <algorithm>

#include "src/sim/check.h"
#include "src/sim/ordered.h"

namespace rldb {

using rlsim::Task;

LockManager::LockManager(rlsim::Simulator& sim, rlsim::Duration timeout)
    : sim_(sim), timeout_(timeout) {}

void LockManager::NoteHeld(uint64_t txn_id, uint64_t key) {
  held_nodes_
      .TryEmplace(held_, txn_id, [](std::vector<uint64_t>& keys) {
        keys.clear();
      })
      .first->second.push_back(key);
}

Task<bool> LockManager::Acquire(uint64_t txn_id, uint64_t key) {
  RL_CHECK(txn_id != 0);
  LockEntry& entry =
      table_nodes_
          .TryEmplace(table_, key, [](LockEntry& e) { e.holder = 0; })
          .first->second;
  if (entry.holder == txn_id) {
    co_return true;  // re-entrant
  }
  if (entry.holder == 0 && entry.waiters.empty()) {
    entry.holder = txn_id;
    NoteHeld(txn_id, key);
    stats_.acquisitions.Add();
    co_return true;
  }

  stats_.waits.Add();
  const rlsim::TimePoint start = sim_.now();
  auto granted = std::make_shared<rlsim::Completion<bool>>(sim_);
  entry.waiters.push_back(Waiter{txn_id, granted});
  sim_.Schedule(timeout_, [granted] {
    if (!granted->completed()) {
      granted->Complete(false);
    }
  });
  const bool ok = co_await granted->Wait();
  stats_.wait_time.RecordDuration(sim_.now() - start);
  if (!ok) {
    // Timed out: remove ourselves from the queue if still there. A release
    // at the timeout's instant may already have popped us and erased the
    // entry.
    if (const auto it = table_.find(key); it != table_.end()) {
      rlsim::Fifo<Waiter>& waiters = it->second.waiters;
      for (size_t i = 0; i < waiters.size(); ++i) {
        if (waiters[i].granted == granted) {
          waiters.erase(i);
          break;
        }
      }
    }
    stats_.timeouts.Add();
    co_return false;
  }
  // Release() handed us the lock and already updated the tables.
  co_return true;
}

void LockManager::Release(uint64_t txn_id, uint64_t key) {
  auto it = table_.find(key);
  RL_CHECK(it != table_.end());
  LockEntry& entry = it->second;
  RL_CHECK_MSG(entry.holder == txn_id, "releasing a lock held by another txn");
  entry.holder = 0;
  while (!entry.waiters.empty()) {
    Waiter w = entry.waiters.front();
    entry.waiters.pop_front();
    if (w.granted->completed()) {
      continue;  // timed out while queued
    }
    entry.holder = w.txn_id;
    NoteHeld(w.txn_id, key);
    stats_.acquisitions.Add();
    w.granted->Complete(true);
    return;
  }
  if (entry.waiters.empty() && entry.holder == 0) {
    table_nodes_.Erase(table_, it);
  }
}

void LockManager::ReleaseAll(uint64_t txn_id) {
  const auto it = held_.find(txn_id);
  if (it == held_.end()) {
    return;
  }
  // Release in ascending key order: Release() hands each lock to the next
  // waiter, so hash-iteration order here would decide which blocked
  // transactions wake first — an ordering leak into the event stream.
  // (References into held_ survive the inserts Release() makes; iterators
  // do not, hence the second lookup.)
  std::vector<uint64_t>& keys = it->second;
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) {
    Release(txn_id, key);
  }
  held_nodes_.Erase(held_, held_.find(txn_id));
}

void LockManager::Shutdown() {
  // Sorted snapshot: completing a waiter schedules its wakeup, so the
  // completion order must not follow hash-table iteration order.
  for (const uint64_t key : rlsim::SortedKeys(table_)) {
    LockEntry& entry = table_.at(key);
    for (size_t i = 0; i < entry.waiters.size(); ++i) {
      Waiter& w = entry.waiters[i];
      if (!w.granted->completed()) {
        w.granted->Complete(false);
      }
    }
  }
}

size_t LockManager::held_count(uint64_t txn_id) const {
  const auto it = held_.find(txn_id);
  return it == held_.end() ? 0 : it->second.size();
}

}  // namespace rldb
