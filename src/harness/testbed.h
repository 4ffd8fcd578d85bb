// The full experimental testbed: composes power supply, physical disks,
// microkernel, VMM, RapiLog and the database engine into the deployment
// configurations the paper compares, and provides the fault-injection and
// recovery entry points the experiments drive.
//
//   kNative      DBMS on bare metal, synchronous durable log writes.
//   kVirt        DBMS in a guest VM, paravirtual disks, synchronous writes
//                (isolates the virtualisation overhead).
//   kRapiLog     Like kVirt, but the log disk's backend is a RapiLogDevice —
//                the guest and DBMS are unmodified.
//   kUnsafeAsync Like kVirt with asynchronous (non-durable) commit: the
//                performance upper bound RapiLog is measured against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/net/network_fabric.h"
#include "src/power/power.h"
#include "src/rapilog/rapilog_device.h"
#include "src/replica/log_shipper.h"
#include "src/replica/replica_node.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/storage/block_device.h"
#include "src/storage/partition.h"
#include "src/vmm/virtual_block_device.h"
#include "src/vmm/vm.h"

namespace rlharness {

enum class DeploymentMode { kNative, kVirt, kRapiLog, kUnsafeAsync };
enum class DiskSetup {
  kSharedHdd,    // one spindle, log and data partitions share it
  kSeparateHdd,  // dedicated log spindle
  kBbwc,         // battery-backed write cache in front of both disks
  kSsdLog,       // HDD data, SSD log
};

std::string ToString(DeploymentMode m);
std::string ToString(DiskSetup d);

// Calibrates the admission budget's worst-case drain rate to the log device
// `disks` puts behind RapiLog, as the paper does by measuring its disk. A
// caller's non-default rate (e.g. the overstated-budget ablation) is kept.
rapilog::RapiLogOptions CalibrateDrainRate(rapilog::RapiLogOptions options,
                                           DiskSetup disks);

// Powers a physical disk with the rails.
class DiskPowerSink : public rlpow::PowerSink {
 public:
  explicit DiskPowerSink(rlstor::SimBlockDevice& dev) : dev_(dev) {}
  void OnPowerDown() override { dev_.PowerLoss(); }
  void OnPowerRestore() override { dev_.PowerRestore(); }
  void OnOutageAbsorbed() override { dev_.ExitEmergencyMode(); }

 private:
  rlstor::SimBlockDevice& dev_;
};

// Replicated topology: a LogShipper interposed on the primary's log path,
// streaming to `replicas` ReplicaNodes ("replica-0"...) over a NetworkFabric.
// The replicas are separate failure domains (their disks do not ride the
// primary's PSU).
struct ReplicationOptions {
  bool enabled = false;
  size_t replicas = 2;
  rlnet::LinkParams link;          // primary <-> each replica
  rlrep::ShipMode ship_mode = rlrep::ShipMode::kAsync;
};

struct TestbedOptions {
  DeploymentMode mode = DeploymentMode::kRapiLog;
  DiskSetup disks = DiskSetup::kSharedHdd;
  rldb::DbOptions db;
  rlpow::PsuParams psu;
  rapilog::RapiLogOptions rapilog;
  ReplicationOptions replication;
};

class Testbed {
 public:
  Testbed(rlsim::Simulator& sim, TestbedOptions options);
  ~Testbed();

  // Builds the stack and opens (or recovers) the database.
  rlsim::Task<void> Start();

  rldb::Database& db() { return *db_; }
  bool db_open() const { return db_ != nullptr; }
  // Powered with an open engine: the testbed can serve transactions.
  bool up() const { return db_open() && psu_->mains_on(); }

  // --- Fault injection ------------------------------------------------------

  // Pulls the plug. The PSU warns the trusted layer, RapiLog drains, the
  // rails drop, devices lose their volatile caches, the guest dies.
  void CutPower();

  // Mains return; devices power up; the database recovers from disk.
  rlsim::Task<void> RestorePowerAndRecover();

  // Mains return, but the primary's log disk is treated as lost with the
  // machine: before recovery, its image is replaced by the most advanced
  // replica's log image (the disk-to-disk restore a failover would do). The
  // database then recovers from the replicated log. Requires replication.
  rlsim::Task<void> RestorePowerAndRecoverFromReplica();

  // Partitions (heals) the link between the primary and replica `r`.
  void PartitionReplica(size_t r);
  void HealReplica(size_t r);

  // Degrades (restores) the primary<->replica link to the given random-loss
  // probability without taking it down.
  void SetReplicaLinkLoss(size_t r, double drop_probability);

  // Kills replica `r` outright: its disk loses power and its link drops.
  // Revive powers the disk back up and heals the link; the shipper's
  // go-back-N retransmission then catches the replica up. Both idempotent.
  void KillReplica(size_t r);
  void ReviveReplica(size_t r);

  // Arms the next `count` writes against the physical log/data disk to fail
  // with kIoError after landing a torn sector prefix (see
  // SimBlockDevice::InjectWriteFaults). Cleared by the next power cycle.
  void InjectLogDiskWriteFaults(uint32_t count);
  void InjectDataDiskWriteFaults(uint32_t count);

  // Kills the guest OS/DBMS only (trusted layer and devices unaffected).
  void CrashGuest();

  // Reboots the guest: waits for RapiLog to drain its buffer ("eventual
  // durability" realised), then re-opens the database.
  rlsim::Task<void> RecoverAfterGuestCrash();

  // --- Introspection ----------------------------------------------------------

  rapilog::RapiLogDevice* rapilog() { return rapilog_.get(); }
  rlpow::PowerSupply& psu() { return *psu_; }
  const rlpow::PowerSupply& psu() const { return *psu_; }
  rlvmm::VirtualMachine* vm() { return vm_.get(); }
  // Null in kNative mode (no guest stack). The per-stage latency benches
  // read its request_latency histogram for the VMM leg of the commit path.
  rlvmm::VirtualBlockDevice* guest_log_dev() { return guest_log_dev_.get(); }
  rlstor::SimBlockDevice& data_disk() { return *data_disk_; }
  rlstor::SimBlockDevice& log_disk_physical() {
    return separate_log_disk_ ? *separate_log_disk_ : *data_disk_;
  }
  // Physical layout for disk-image tooling (the recovery-equivalence oracle
  // clones crash states): where the engine's data LBA 0 sits on data_disk(),
  // and how many sectors of log_disk_physical() the log region occupies.
  uint64_t data_first_lba() const {
    return separate_log_disk_ ? 0 : log_sector_count_;
  }
  uint64_t log_sector_count() const { return log_sector_count_; }
  rlrep::LogShipper* shipper() { return shipper_.get(); }
  const rlrep::LogShipper* shipper() const { return shipper_.get(); }
  rlrep::ReplicaNode& replica(size_t r) { return *replicas_.at(r); }
  size_t replica_count() const { return replicas_.size(); }
  rlnet::NetworkFabric* fabric() { return fabric_.get(); }

  // Registers fabric/shipper/replica stats under "net." / "ship." /
  // "replica-N." for uniform bench reporting. No-op without replication.
  void RegisterReplicationStats(rlsim::StatsRegistry& registry) const;

  const TestbedOptions& options() const { return options_; }

 private:
  class GuestPowerSink;
  class ShipperPowerSink;

  rlsim::Task<void> OpenDatabase();
  void BuildDevices();
  void BuildReplication(rlstor::BlockDevice& local_log);
  void BuildGuestStack();
  // The DBMS-facing log device: shipper if replicated, else RapiLog, else
  // the raw log disk/partition.
  rlstor::BlockDevice& LogTarget();

  rlsim::Simulator& sim_;
  TestbedOptions options_;

  std::unique_ptr<rlpow::PowerSupply> psu_;

  // Physical storage.
  std::unique_ptr<rlstor::SimBlockDevice> data_disk_;
  std::unique_ptr<rlstor::SimBlockDevice> separate_log_disk_;
  std::unique_ptr<rlstor::PartitionDevice> data_partition_;
  std::unique_ptr<rlstor::PartitionDevice> log_partition_;

  // Replication (optional).
  std::unique_ptr<rlnet::NetworkFabric> fabric_;
  std::vector<std::unique_ptr<rlrep::ReplicaNode>> replicas_;
  std::unique_ptr<rlrep::LogShipper> shipper_;
  uint64_t log_sector_count_ = 0;  // log LBA range on the physical disk

  // Trusted layer.
  std::unique_ptr<rapilog::RapiLogDevice> rapilog_;
  std::unique_ptr<rlkern::Kernel> kernel_;
  std::unique_ptr<rlvmm::VirtualMachine> vm_;
  std::unique_ptr<rlvmm::BlockBackend> data_backend_;
  std::unique_ptr<rlvmm::BlockBackend> log_backend_;

  // Guest-visible devices.
  std::unique_ptr<rlvmm::VirtualBlockDevice> guest_data_dev_;
  std::unique_ptr<rlvmm::VirtualBlockDevice> guest_log_dev_;

  std::unique_ptr<rldb::CpuContext> cpu_;
  std::unique_ptr<rldb::Database> db_;

  std::vector<std::unique_ptr<rlpow::PowerSink>> power_sinks_;
};

}  // namespace rlharness
