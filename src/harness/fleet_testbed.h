// A fleet of shard testbeds behind a 2PC coordinator — the E13 topology.
//
// Each shard is a full Testbed (its own PSU, disks, microkernel, VMM,
// RapiLog device and database engine — an independent failure domain); the
// coordinator is a separate host with its own PSU, and its decision log
// writes through a RapiLog device in front of a dedicated SSD — the shard
// hosts' trusted log path, so a decision is durable once it is buffered.
// One deterministic NetworkFabric carries all coordinator<->shard traffic
// ("coord" <-> "shard-i" links), distinct from any per-shard replication
// fabric.
//
// Fault surface: kill/recover a shard (power), partition/heal a shard's
// link, kill/recover the coordinator. All idempotent and safe to fire in any
// order — the protocol's timeouts, retransmissions and in-doubt resolution
// absorb every interleaving.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/net/network_fabric.h"
#include "src/shard/shard_directory.h"
#include "src/shard/shard_node.h"
#include "src/shard/txn_coordinator.h"
#include "src/sim/simulator.h"
#include "src/harness/testbed.h"

namespace rlharness {

struct FleetOptions {
  size_t shards = 2;
  // Flat key space the directory partitions. Workload keys must stay below
  // this.
  uint64_t key_space = 1 << 20;
  // Template for every shard's testbed, used as is for each shard. Its
  // `psu` and `rapilog` also build the coordinator host's PSU and
  // decision-log RapiLog device.
  TestbedOptions shard;
  rlshard::CoordinatorOptions coordinator;
};

class FleetTestbed {
 public:
  FleetTestbed(rlsim::Simulator& sim, FleetOptions options);
  ~FleetTestbed();

  // Boots every shard testbed, recovers the coordinator's decision log and
  // starts the protocol agents.
  rlsim::Task<void> Start();

  // Drains in-flight protocol state so the simulator can tear down: closes
  // shard databases and the decision log writer.
  rlsim::Task<void> Shutdown();

  const rlshard::ShardDirectory& directory() const { return directory_; }
  rlshard::TxnCoordinator& coordinator() { return *coordinator_; }
  rlnet::NetworkFabric& fabric() { return fabric_; }
  size_t shard_count() const { return beds_.size(); }
  Testbed& shard(size_t i) { return *beds_.at(i); }
  rlshard::ShardNode& node(size_t i) { return *nodes_.at(i); }
  // The shard's live engine, or nullptr while the shard machine is down.
  rldb::Database* shard_db(size_t i);

  // --- Fault injection ------------------------------------------------------

  void KillShard(size_t i);                      // power cut
  rlsim::Task<void> RecoverShard(size_t i);      // power + crash recovery
  void PartitionShard(size_t i);                 // coord<->shard link down
  void HealShard(size_t i);
  // Volatile state dies, then the coordinator host's mains are cut:
  // RapiLog's guard flushes buffered decisions inside the hold-up window.
  void KillCoordinator();
  // Mains back, RapiLog drained, decision log rescanned.
  rlsim::Task<void> RecoverCoordinator();

  bool shard_powered(size_t i) const { return beds_.at(i)->psu().mains_on(); }
  bool coordinator_alive() const { return coordinator_->alive(); }
  rapilog::RapiLogDevice& coordinator_rapilog() { return *coord_rapilog_; }

  // Waits (polling) until no shard holds an in-doubt transaction and the
  // coordinator has no decision pushes outstanding. Returns false if
  // `budget` elapsed first. Call with the fleet fully healed.
  rlsim::Task<bool> ResolveAllInDoubt(rlsim::Duration budget);

 private:
  rlsim::Simulator& sim_;
  FleetOptions options_;
  rlshard::ShardDirectory directory_;
  rlnet::NetworkFabric fabric_;

  std::vector<std::unique_ptr<Testbed>> beds_;
  // The coordinator host.
  std::unique_ptr<rlpow::PowerSupply> coord_psu_;
  std::unique_ptr<rlstor::SimBlockDevice> coord_disk_;
  std::unique_ptr<rapilog::RapiLogDevice> coord_rapilog_;
  std::unique_ptr<DiskPowerSink> coord_disk_power_;
  std::unique_ptr<rlshard::TxnCoordinator> coordinator_;
  std::vector<std::unique_ptr<rlshard::ShardNode>> nodes_;
};

}  // namespace rlharness
