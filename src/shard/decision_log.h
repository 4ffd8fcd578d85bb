// The coordinator's durable decision log.
//
// Presumed abort means only COMMIT decisions are ever logged: a global id
// absent from this log (and from the coordinator's in-flight table) is an
// abort by definition. That keeps the common abort path free of I/O and
// makes the log a monotonically growing set of commit records.
//
// Reuses the engine's WAL machinery (LogWriter / ScanLog / LogRecord) on a
// dedicated block device: records are {type=kCommit, txn_id=global id}, and
// the same torn-tail rules apply — a decision is only acted on (client
// acked, DECISION messages sent) after WaitDurable returns, so every
// acknowledged decision survives any crash.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <set>

#include "src/db/profile.h"
#include "src/db/wal.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/storage/block_device.h"

namespace rlshard {

class DecisionLog {
 public:
  struct Stats {
    rlsim::Counter decisions_logged;
    rlsim::Counter decisions_recovered;
  };

  // The log never moves its ring's reuse floor (it keeps every decision),
  // so it takes its whole device as the ring: a cap would only end the run
  // sooner.
  DecisionLog(rlsim::Simulator& sim, rlstor::BlockDevice& device,
              rldb::EngineProfile profile)
      : sim_(sim), device_(device), profile_(profile) {
    profile_.log_ring_bytes = std::numeric_limits<uint64_t>::max();
  }

  // (Re)builds the committed set from the log's valid prefix and installs a
  // fresh writer resuming at the scan end. Call once before first use and
  // again after every power restore — a halted LogWriter is permanently
  // dead and must be replaced, never reused.
  rlsim::Task<void> Recover();

  // Durably records a commit decision for `global_id`. Throws EngineHalted
  // if the device dies first — in which case the decision was NOT made and
  // the transaction will be presumed aborted unless the record landed and a
  // later recovery finds it (either way is a valid 2PC outcome, because no
  // ack was sent).
  rlsim::Task<void> LogCommit(uint64_t global_id);

  bool IsCommitted(uint64_t global_id) const {
    return committed_.count(global_id) > 0;
  }

  // Every participant has acked the commit of `global_id`, and a shard acks
  // only once its commit is durable, so no shard can still ask about it:
  // the coordinator may forget it (presumed abort, as in R*). Only the
  // in-memory set shrinks; Recover() rebuilds it from the whole log.
  void Forget(uint64_t global_id) { committed_.erase(global_id); }

  // Commits still remembered: logged or recovered, and not yet forgotten.
  size_t committed_count() const { return committed_.size(); }

  bool halted() const { return writer_ == nullptr || writer_->halted(); }

  // Drains the writer so the object (and the simulator) can tear down with
  // I/O possibly in flight.
  rlsim::Task<void> Shutdown();

  const Stats& stats() const { return stats_; }

 private:
  rlsim::Simulator& sim_;
  rlstor::BlockDevice& device_;
  rldb::EngineProfile profile_;

  std::set<uint64_t> committed_;
  std::unique_ptr<rldb::LogWriter> writer_;
  Stats stats_;
};

}  // namespace rlshard
