// Fleet-level atomicity and durability oracle for the sharded topology.
//
// The model is DurabilityChecker's — acknowledged transactions must be fully
// present after recovery, unresolved ones all-or-nothing — but a
// transaction's writes may span shards, so "all-or-nothing" becomes the 2PC
// atomicity guarantee itself: after any schedule of crashes and partitions,
// no transaction may be committed on a strict subset of its shards. This
// class only routes: each read goes to the key's owning shard's recovered
// engine through the ShardDirectory.
//
// Outcome mapping for callers driving TxnCoordinator::Execute:
//   kCommitted -> OnCommitAcked   (promise made; must survive)
//   kAborted   -> OnAborted       (model unchanged; the engine's no-steal
//                                  design means aborts leave no trace)
//   kUnknown   -> leave pending   (resolved by VerifyAfterRecovery, which
//                                  promotes fully-applied ones and flags
//                                  definite partial applications)
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/db/database.h"
#include "src/faults/durability_checker.h"
#include "src/shard/shard_directory.h"
#include "src/sim/task.h"

namespace rlfault {

class FleetChecker : public DurabilityChecker {
 public:
  // Call before handing the transaction to the coordinator.
  void OnTxnAttempt(uint64_t token, std::vector<TrackedWrite> writes) {
    OnCommitAttempt(token, std::move(writes));
  }

  // After the fleet is healed and every shard recovered: Verify with reads
  // routed to the owning shard. `dbs[i]` must be shard i's live engine for
  // every shard in the directory.
  rlsim::Task<VerifyResult> VerifyAfterRecovery(
      const rlshard::ShardDirectory& directory,
      const std::vector<rldb::Database*>& dbs);
};

}  // namespace rlfault
