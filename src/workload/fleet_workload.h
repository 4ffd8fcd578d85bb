// Cross-shard transaction mix for the fleet topology (E13).
//
// Each client is homed on one shard and issues blind multi-key write
// transactions through the TxnCoordinator: with probability
// `cross_shard_probability` a transaction reaches into one other shard's
// key range (exercising the full 2PC path), otherwise it stays home and
// rides the single-shard fast path. Every attempt is reported to the
// FleetChecker before it is handed to the coordinator, so unknown outcomes
// (coordinator crash mid-2PC) stay pending until the post-recovery verify
// resolves them.
#pragma once

#include <cstdint>

#include "src/faults/fleet_checker.h"
#include "src/shard/shard_directory.h"
#include "src/shard/txn_coordinator.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

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
  struct Stats {
    rlsim::Counter started;
    rlsim::Counter committed;
    rlsim::Counter aborted;
    rlsim::Counter unknown;
    rlsim::Counter cross_started;
    rlsim::Counter cross_committed;
    rlsim::Counter cross_aborted;
    rlsim::Counter cross_unknown;
    // Client-observed Execute latency (ns), resettable for warmup exclusion
    // (the coordinator's own histogram is not).
    rlsim::Histogram txn_latency;
  };

  // Client RNG streams derive from the simulator's seed, so a run seed
  // changes the transaction mix.
  FleetWorkload(rlsim::Simulator& sim, FleetConfig config)
      : sim_(sim), config_(config), seed_(sim.rng().Next()) {}

  // Drives transactions until *stop. `client_id` determines the home shard
  // (client_id mod shards), the RNG stream (with the run seed), and the
  // global-id namespace — ids are (client_id + 1) << 40 | seq, unique
  // fleet-wide and across recoveries. `checker` may be null (pure
  // benchmarking).
  rlsim::Task<void> RunClient(rlshard::TxnCoordinator& coordinator,
                              const rlshard::ShardDirectory& directory,
                              int client_id, const bool* stop,
                              rlfault::FleetChecker* checker);

  Stats& stats() { return stats_; }

 private:
  rlsim::Simulator& sim_;
  FleetConfig config_;
  uint64_t seed_;
  Stats stats_;
};

}  // namespace rlwork
