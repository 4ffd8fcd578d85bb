// Per-key exclusive lock table with FIFO queuing and a timeout safety net
// (the engine aborts a transaction whose lock wait times out, which also
// breaks any deadlock cycle).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/sim/fifo.h"
#include "src/sim/node_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"

namespace rldb {

class LockManager {
 public:
  struct Stats {
    rlsim::Counter acquisitions;
    rlsim::Counter waits;
    rlsim::Counter timeouts;
    rlsim::Histogram wait_time;  // ns, only for waits
  };

  LockManager(rlsim::Simulator& sim, rlsim::Duration timeout);

  // Acquires the exclusive lock on `key` for `txn_id`. Re-entrant for the
  // holder. Returns false on timeout (caller must abort the transaction).
  rlsim::Task<bool> Acquire(uint64_t txn_id, uint64_t key);

  // Releases every lock held by the transaction.
  void ReleaseAll(uint64_t txn_id);

  // Engine teardown: every queued waiter is woken with "denied" so no
  // coroutine stays parked inside this object (or resumes into it later via
  // its timeout event) after the engine is destroyed.
  void Shutdown();

  size_t held_count(uint64_t txn_id) const;
  // Keys with a holder or a waiter.
  size_t entry_count() const { return table_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr size_t kSpareNodes = 256;

  struct Waiter {
    uint64_t txn_id;
    std::shared_ptr<rlsim::Completion<bool>> granted;
  };
  struct LockEntry {
    uint64_t holder = 0;  // 0 = free
    rlsim::Fifo<Waiter> waiters;
  };

  using LockTable = std::unordered_map<uint64_t, LockEntry>;
  // Keys each transaction holds, in acquisition order (a key appears once:
  // a holder re-acquiring returns early).
  using HeldTable = std::unordered_map<uint64_t, std::vector<uint64_t>>;

  void Release(uint64_t txn_id, uint64_t key);
  void NoteHeld(uint64_t txn_id, uint64_t key);

  rlsim::Simulator& sim_;
  rlsim::Duration timeout_;
  LockTable table_;
  HeldTable held_;
  // Lock entries and held-key lists come and go with every transaction;
  // their nodes (and queue and list capacity) are recycled.
  rlsim::NodePool<LockTable> table_nodes_{kSpareNodes};
  rlsim::NodePool<HeldTable> held_nodes_{kSpareNodes};
  Stats stats_;
};

}  // namespace rldb
