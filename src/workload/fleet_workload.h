// Cross-shard transaction mix for the fleet topology (E13).
//
// Each client is homed on one shard and issues blind multi-key write
// transactions through the TxnCoordinator: with probability
// `cross_shard_probability` a transaction reaches into one other shard's
// key range (exercising the full 2PC path), otherwise it stays home and
// rides the single-shard fast path. Through ClientDriver every attempt is
// reported to the checker before it is handed to the coordinator, so unknown
// outcomes (coordinator crash mid-2PC) stay pending until the post-recovery
// verify resolves them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/shard/shard_directory.h"
#include "src/shard/txn_coordinator.h"
#include "src/sim/simulator.h"
#include "src/workload/client_driver.h"

namespace rlwork {

struct FleetConfig {
  // Probability a transaction includes remote-shard keys.
  double cross_shard_probability = 0.3;
  uint32_t ops_per_txn = 4;
  uint32_t value_bytes = 96;
  rlsim::Duration think_time = rlsim::Duration::Micros(200);
};

class FleetWorkload {
 public:
  // The transaction classes it counts in
  // ClientDriver::Stats::committed_by_kind.
  enum Kind : size_t {
    kSingleShard = 0,
    kCrossShard = 1,
  };

  // Client RNG streams derive from the simulator's seed, so a run seed
  // changes the transaction mix.
  FleetWorkload(rlsim::Simulator& sim, FleetConfig config)
      : sim_(sim), config_(config), seed_(sim.rng().Next()) {}

  // Clients submitting to `coordinator`. Client i is homed on shard
  // i mod shards, pauses think_time after each transaction and 10 ms while
  // the coordinator is down. Its transactions' global ids, which are also
  // their checker tokens, are (i + 1) << 40 | seq: unique fleet-wide and
  // across recoveries.
  ClientDriver::NewClient Clients(rlshard::TxnCoordinator& coordinator,
                                  const rlshard::ShardDirectory& directory);

 private:
  class Client;

  rlsim::Simulator& sim_;
  FleetConfig config_;
  uint64_t seed_;
};

}  // namespace rlwork
