#include "src/harness/testbed.h"

#include <string>
#include <utility>

#include "src/sim/check.h"
#include "src/storage/disk_image.h"

namespace rlharness {

using rlkern::KernelStatus;
using rlkern::ObjectType;
using rlkern::SlotAddr;
using rlsim::Task;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

std::string ToString(DeploymentMode m) {
  switch (m) {
    case DeploymentMode::kNative:
      return "native";
    case DeploymentMode::kVirt:
      return "virt";
    case DeploymentMode::kRapiLog:
      return "rapilog";
    case DeploymentMode::kUnsafeAsync:
      return "unsafe-async";
  }
  return "unknown";
}

std::string ToString(DiskSetup d) {
  switch (d) {
    case DiskSetup::kSharedHdd:
      return "shared-hdd";
    case DiskSetup::kSeparateHdd:
      return "separate-hdd";
    case DiskSetup::kBbwc:
      return "bbwc";
    case DiskSetup::kSsdLog:
      return "ssd-log";
  }
  return "unknown";
}

rapilog::RapiLogOptions CalibrateDrainRate(rapilog::RapiLogOptions options,
                                           DiskSetup disks) {
  if (options.worst_case_drain_mbps !=
      rapilog::RapiLogOptions{}.worst_case_drain_mbps) {
    return options;
  }
  switch (disks) {
    case DiskSetup::kSsdLog:
      options.worst_case_drain_mbps = 150.0;
      break;
    case DiskSetup::kBbwc:
      options.worst_case_drain_mbps = 100.0;
      break;
    case DiskSetup::kSharedHdd:
    case DiskSetup::kSeparateHdd:
      break;  // the conservative default fits a rotating log disk
  }
  return options;
}

// The guest is stopped at the power-fail warning (it is doomed anyway, and
// killing it immediately dedicates the remaining hold-up energy — and the
// disk's full bandwidth — to RapiLog's emergency flush, as in the paper).
class Testbed::GuestPowerSink : public rlpow::PowerSink {
 public:
  GuestPowerSink(rlvmm::VirtualMachine& vm, bool crash_on_warning)
      : vm_(vm), crash_on_warning_(crash_on_warning) {}
  void OnPowerFailWarning(rlsim::Duration /*remaining*/) override {
    if (crash_on_warning_) {
      vm_.Crash();
    }
  }
  void OnPowerDown() override { vm_.Crash(); }

 private:
  rlvmm::VirtualMachine& vm_;
  // Part of RapiLog's guard: stopping the doomed guest at the warning
  // dedicates the hold-up energy (and the disk) to the emergency flush.
  // Without the guard (ablation) nothing reacts to the warning and the
  // guest runs until the rails drop.
  bool crash_on_warning_;
};

// The shipper rides the primary's rails: its window and cursors are volatile
// primary memory. (The replicas and the fabric are other failure domains and
// are deliberately NOT wired to this PSU.)
class Testbed::ShipperPowerSink : public rlpow::PowerSink {
 public:
  explicit ShipperPowerSink(rlrep::LogShipper& shipper) : shipper_(shipper) {}
  void OnPowerDown() override { shipper_.PowerLoss(); }
  void OnPowerRestore() override { shipper_.PowerRestore(); }

 private:
  rlrep::LogShipper& shipper_;
};

Testbed::Testbed(rlsim::Simulator& sim, TestbedOptions options)
    : sim_(sim), options_(std::move(options)) {
  psu_ = std::make_unique<rlpow::PowerSupply>(sim_, options_.psu);
  BuildDevices();
  if (options_.mode != DeploymentMode::kNative) {
    BuildGuestStack();
  } else {
    cpu_ = std::make_unique<rldb::NativeCpu>(sim_);
  }
  // Register disk power sinks after RapiLog (which registered itself during
  // BuildDevices): the guard must see the warning before the disks see the
  // rails drop — matching reality, where all of them ride the same rails and
  // the drain finishes inside the hold-up window.
  for (auto& sink : power_sinks_) {
    psu_->Register(sink.get());
  }
}

Testbed::~Testbed() = default;

void Testbed::BuildDevices() {
  // 2 GiB data spindle; the log area is the first 256 MiB when shared.
  constexpr uint64_t kDiskSectors = 4ull * 1024 * 1024;
  constexpr uint64_t kLogSectors = 512ull * 1024;

  const bool bbwc = options_.disks == DiskSetup::kBbwc;
  const WriteCachePolicy policy = bbwc
                                      ? WriteCachePolicy::kBatteryBackedWriteBack
                                      : WriteCachePolicy::kWriteBack;

  SimBlockDevice::Options data_opts;
  data_opts.geometry.sector_count = kDiskSectors;
  data_opts.cache_policy = policy;
  data_opts.name = "data-hdd";
  data_disk_ =
      std::make_unique<SimBlockDevice>(sim_, data_opts, rlstor::MakeDefaultHdd());

  rlstor::BlockDevice* log_physical = nullptr;
  switch (options_.disks) {
    case DiskSetup::kSharedHdd: {
      // Log and data partitions on the one spindle.
      log_partition_ = std::make_unique<rlstor::PartitionDevice>(
          *data_disk_, 0, kLogSectors);
      data_partition_ = std::make_unique<rlstor::PartitionDevice>(
          *data_disk_, kLogSectors, kDiskSectors - kLogSectors);
      log_physical = log_partition_.get();
      break;
    }
    case DiskSetup::kSeparateHdd:
    case DiskSetup::kBbwc:
    case DiskSetup::kSsdLog: {
      SimBlockDevice::Options log_opts;
      log_opts.geometry.sector_count = kLogSectors;
      log_opts.cache_policy = policy;
      log_opts.name = "log-disk";
      separate_log_disk_ = std::make_unique<SimBlockDevice>(
          sim_, log_opts,
          options_.disks == DiskSetup::kSsdLog ? rlstor::MakeDefaultSsd()
                                               : rlstor::MakeDefaultHdd());
      data_partition_ = std::make_unique<rlstor::PartitionDevice>(
          *data_disk_, 0, kDiskSectors);
      log_physical = separate_log_disk_.get();
      break;
    }
  }

  if (options_.mode == DeploymentMode::kRapiLog) {
    options_.rapilog = CalibrateDrainRate(options_.rapilog, options_.disks);
    // RapiLog registers itself with the PSU here — before the disk sinks.
    rapilog_ = std::make_unique<rapilog::RapiLogDevice>(
        sim_, *psu_, *log_physical, options_.rapilog);
  }

  log_sector_count_ = kLogSectors;
  if (options_.replication.enabled) {
    BuildReplication(rapilog_ != nullptr
                         ? static_cast<rlstor::BlockDevice&>(*rapilog_)
                         : *log_physical);
  }

  power_sinks_.push_back(std::make_unique<DiskPowerSink>(*data_disk_));
  if (separate_log_disk_ != nullptr) {
    power_sinks_.push_back(std::make_unique<DiskPowerSink>(*separate_log_disk_));
  }
}

void Testbed::BuildReplication(rlstor::BlockDevice& local_log) {
  const ReplicationOptions& rep = options_.replication;
  RL_CHECK_MSG(rep.replicas >= 1, "replication needs >= 1 replica");

  fabric_ = std::make_unique<rlnet::NetworkFabric>(sim_);
  std::vector<std::string> names;
  names.reserve(rep.replicas);
  for (size_t r = 0; r < rep.replicas; ++r) {
    names.push_back("replica-" + std::to_string(r));
    replicas_.push_back(std::make_unique<rlrep::ReplicaNode>(
        sim_, *fabric_, names.back(), "primary"));
    RL_CHECK_MSG(
        replicas_.back()->disk().geometry().sector_count >= log_sector_count_,
        "replica disks must cover the primary log's sector range");
  }
  shipper_ = std::make_unique<rlrep::LogShipper>(
      sim_, *fabric_, "primary", names, local_log, rep.ship_mode);
  for (const std::string& name : names) {
    fabric_->Connect("primary", name, rep.link);
  }
  power_sinks_.push_back(std::make_unique<ShipperPowerSink>(*shipper_));
}

rlstor::BlockDevice& Testbed::LogTarget() {
  if (shipper_ != nullptr) {
    return *shipper_;
  }
  if (rapilog_ != nullptr) {
    return *rapilog_;
  }
  if (separate_log_disk_ != nullptr) {
    return *separate_log_disk_;
  }
  return *log_partition_;
}

void Testbed::BuildGuestStack() {
  kernel_ = std::make_unique<rlkern::Kernel>(sim_);
  vm_ = std::make_unique<rlvmm::VirtualMachine>(sim_);
  power_sinks_.push_back(std::make_unique<GuestPowerSink>(
      *vm_, rapilog_ != nullptr && options_.rapilog.enable_power_guard));

  const rlkern::ObjectId root_cnode = kernel_->BootstrapCNode(64);
  RL_CHECK(kernel_->BootstrapUntyped(root_cnode, 0, 1 << 20) ==
           KernelStatus::kOk);
  RL_CHECK(kernel_->Retype(SlotAddr{root_cnode, 0}, ObjectType::kEndpoint, 0,
                           root_cnode, 1, 2) == KernelStatus::kOk);
  const SlotAddr data_ep{root_cnode, 1};
  const SlotAddr log_ep{root_cnode, 2};

  rlstor::BlockDevice* log_target = &LogTarget();

  data_backend_ = std::make_unique<rlvmm::BlockBackend>(
      sim_, *kernel_, data_ep, *data_partition_, "data-backend");
  log_backend_ = std::make_unique<rlvmm::BlockBackend>(
      sim_, *kernel_, log_ep, *log_target, "log-backend");
  data_backend_->Start();
  log_backend_->Start();

  guest_data_dev_ = std::make_unique<rlvmm::VirtualBlockDevice>(
      sim_, *vm_, *kernel_, data_ep, data_partition_->geometry(),
      data_partition_->volatile_write_cache(), "guest-data-vblk");
  guest_log_dev_ = std::make_unique<rlvmm::VirtualBlockDevice>(
      sim_, *vm_, *kernel_, log_ep, log_target->geometry(),
      log_target->volatile_write_cache(), "guest-log-vblk");

  cpu_ = std::make_unique<rldb::GuestCpu>(*vm_);
}

Task<void> Testbed::OpenDatabase() {
  rldb::DbOptions db_opts = options_.db;
  if (options_.mode == DeploymentMode::kUnsafeAsync) {
    db_opts.durability = rldb::DurabilityMode::kAsyncUnsafe;
  }
  rlstor::BlockDevice* data_dev;
  rlstor::BlockDevice* log_dev;
  if (options_.mode == DeploymentMode::kNative) {
    data_dev = data_partition_.get();
    log_dev = &LogTarget();
  } else {
    data_dev = guest_data_dev_.get();
    log_dev = guest_log_dev_.get();
  }
  db_ = co_await rldb::Database::Open(sim_, *cpu_, *data_dev, *log_dev,
                                      db_opts);
}

Task<void> Testbed::Start() { co_await OpenDatabase(); }

void Testbed::CutPower() {
  sim_.EmitTrace("testbed", "cut-power", 0);
  psu_->CutMains();
}

Task<void> Testbed::RestorePowerAndRecover() {
  // Settle: give every in-flight guest operation time to complete its
  // device-level leg and unwind while the engine object is still alive.
  co_await sim_.Sleep(rlsim::Duration::Millis(300));
  if (db_ != nullptr) {
    co_await db_->Close();
    db_.reset();
  }
  psu_->RestoreMains();
  if (vm_ != nullptr && !vm_->running()) {
    vm_->Reset();
  }
  co_await OpenDatabase();
}

Task<void> Testbed::RestorePowerAndRecoverFromReplica() {
  RL_CHECK_MSG(shipper_ != nullptr,
               "replica restore needs replication enabled");
  co_await sim_.Sleep(rlsim::Duration::Millis(300));
  if (db_ != nullptr) {
    co_await db_->Close();
    db_.reset();
  }
  psu_->RestoreMains();

  // Pick the most advanced replica (in a real failover: highest-cursor
  // survivor) and splice its log image onto the primary's physical log disk,
  // replacing whatever the dead primary held there.
  size_t best = 0;
  for (size_t r = 1; r < replicas_.size(); ++r) {
    if (replicas_[r]->cursor() > replicas_[best]->cursor()) {
      best = r;
    }
  }
  // In every DiskSetup the log occupies physical sectors [0, log sectors):
  // either a dedicated device or the first partition of the shared spindle.
  // The replica's log replaces that whole range, so the dead primary's
  // locally-durable-but-unreplicated tail cannot survive the restore.
  log_disk_physical().image().CopyDurableWindow(
      replicas_[best]->disk().image(), 0, log_sector_count_);

  if (vm_ != nullptr && !vm_->running()) {
    vm_->Reset();
  }
  co_await OpenDatabase();
}

void Testbed::PartitionReplica(size_t r) {
  RL_CHECK(fabric_ != nullptr);
  sim_.EmitTrace("testbed", "partition-replica", static_cast<uint32_t>(r));
  fabric_->SetLinkUp("primary", replicas_.at(r)->name(), false);
}

void Testbed::HealReplica(size_t r) {
  RL_CHECK(fabric_ != nullptr);
  sim_.EmitTrace("testbed", "heal-replica", static_cast<uint32_t>(r));
  fabric_->SetLinkUp("primary", replicas_.at(r)->name(), true);
}

void Testbed::SetReplicaLinkLoss(size_t r, double drop_probability) {
  RL_CHECK(fabric_ != nullptr);
  sim_.EmitTrace("testbed", "set-link-loss", static_cast<uint32_t>(r));
  fabric_->SetLinkLoss("primary", replicas_.at(r)->name(), drop_probability);
}

void Testbed::KillReplica(size_t r) {
  RL_CHECK(fabric_ != nullptr);
  sim_.EmitTrace("testbed", "kill-replica", static_cast<uint32_t>(r));
  replicas_.at(r)->disk().PowerLoss();
  fabric_->SetLinkUp("primary", replicas_.at(r)->name(), false);
}

void Testbed::ReviveReplica(size_t r) {
  RL_CHECK(fabric_ != nullptr);
  sim_.EmitTrace("testbed", "revive-replica", static_cast<uint32_t>(r));
  replicas_.at(r)->disk().PowerRestore();
  fabric_->SetLinkUp("primary", replicas_.at(r)->name(), true);
}

void Testbed::InjectLogDiskWriteFaults(uint32_t count) {
  log_disk_physical().InjectWriteFaults(count);
}

void Testbed::InjectDataDiskWriteFaults(uint32_t count) {
  data_disk().InjectWriteFaults(count);
}

void Testbed::RegisterReplicationStats(rlsim::StatsRegistry& registry) const {
  if (fabric_ == nullptr) {
    return;
  }
  fabric_->RegisterStats(registry, "net.");
  shipper_->RegisterStats(registry, "ship.");
  for (const auto& replica : replicas_) {
    replica->RegisterStats(registry, replica->name() + ".");
  }
}

void Testbed::CrashGuest() {
  RL_CHECK_MSG(vm_ != nullptr, "native deployment has no guest to crash");
  sim_.EmitTrace("testbed", "crash-guest", 0);
  vm_->Crash();
}

Task<void> Testbed::RecoverAfterGuestCrash() {
  co_await sim_.Sleep(rlsim::Duration::Millis(300));
  if (db_ != nullptr) {
    co_await db_->Close();
    db_.reset();
  }
  if (rapilog_ != nullptr) {
    // Below-the-guest drain: everything the dead DBMS was promised reaches
    // the disk before the new incarnation recovers.
    co_await rapilog_->Quiesce();
  }
  if (vm_ != nullptr && !vm_->running()) {
    vm_->Reset();
  }
  co_await OpenDatabase();
}

}  // namespace rlharness
