#include "src/harness/fleet_testbed.h"

#include <utility>

#include "src/sim/check.h"
#include "src/storage/disk_model.h"

namespace rlharness {

namespace {
constexpr char kCoordEndpoint[] = "coord";
// Coordinator <-> shard link characteristics.
constexpr rlnet::LinkParams kCoordinatorLink{};
}  // namespace

FleetTestbed::FleetTestbed(rlsim::Simulator& sim, FleetOptions options)
    : sim_(sim),
      options_(std::move(options)),
      directory_(options_.shards, options_.key_space),
      fabric_(sim) {
  std::vector<std::string> shard_endpoints;
  shard_endpoints.reserve(options_.shards);
  for (size_t i = 0; i < options_.shards; ++i) {
    shard_endpoints.push_back(rlshard::ShardDirectory::EndpointName(i));
  }

  // The coordinator's decision log rides a small dedicated SSD behind
  // RapiLog. RapiLog registers with the PSU before the disk's sink, so the
  // guard sees the warning before the disk sees the rails drop.
  coord_psu_ = std::make_unique<rlpow::PowerSupply>(sim_, options_.shard.psu);
  rlstor::SimBlockDevice::Options disk_opts;
  disk_opts.geometry.sector_count = 512ull * 1024;  // 256 MiB
  disk_opts.name = "coord-log";
  coord_disk_ = std::make_unique<rlstor::SimBlockDevice>(
      sim_, disk_opts, rlstor::MakeDefaultSsd());
  coord_rapilog_ = std::make_unique<rapilog::RapiLogDevice>(
      sim_, *coord_psu_, *coord_disk_,
      CalibrateDrainRate(options_.shard.rapilog, DiskSetup::kSsdLog));
  coord_disk_power_ = std::make_unique<DiskPowerSink>(*coord_disk_);
  coord_psu_->Register(coord_disk_power_.get());

  coordinator_ = std::make_unique<rlshard::TxnCoordinator>(
      sim_, fabric_, kCoordEndpoint, shard_endpoints, *coord_rapilog_,
      options_.shard.db.profile, options_.coordinator);

  for (size_t i = 0; i < options_.shards; ++i) {
    beds_.push_back(std::make_unique<Testbed>(sim_, options_.shard));
    // The provider re-fetches the engine on every use: recovery replaces the
    // Database object, and a powered-off machine must read as "down" (nullptr)
    // rather than as a halted engine.
    Testbed* bed = beds_.back().get();
    nodes_.push_back(std::make_unique<rlshard::ShardNode>(
        sim_, fabric_, shard_endpoints[i], kCoordEndpoint,
        [bed]() -> rldb::Database* {
          return bed->up() ? &bed->db() : nullptr;
        }));
    fabric_.Connect(kCoordEndpoint, shard_endpoints[i], kCoordinatorLink);
  }
}

FleetTestbed::~FleetTestbed() = default;

rlsim::Task<void> FleetTestbed::Start() {
  for (auto& bed : beds_) {
    co_await bed->Start();
  }
  co_await coordinator_->Start();
  for (auto& node : nodes_) {
    node->Start();
  }
}

rlsim::Task<void> FleetTestbed::Shutdown() {
  for (auto& node : nodes_) {
    node->Stop();
  }
  for (auto& bed : beds_) {
    if (bed->db_open()) {
      co_await bed->db().Close();
    }
  }
  co_await coordinator_->Shutdown();
}

rldb::Database* FleetTestbed::shard_db(size_t i) {
  Testbed& bed = *beds_.at(i);
  return bed.up() ? &bed.db() : nullptr;
}

void FleetTestbed::KillShard(size_t i) {
  if (!beds_.at(i)->psu().mains_on()) {
    return;
  }
  beds_[i]->CutPower();
}

rlsim::Task<void> FleetTestbed::RecoverShard(size_t i) {
  if (beds_.at(i)->psu().mains_on()) {
    co_return;
  }
  co_await beds_[i]->RestorePowerAndRecover();
}

void FleetTestbed::PartitionShard(size_t i) {
  fabric_.SetLinkUp(kCoordEndpoint, rlshard::ShardDirectory::EndpointName(i),
                    false);
}

void FleetTestbed::HealShard(size_t i) {
  fabric_.SetLinkUp(kCoordEndpoint, rlshard::ShardDirectory::EndpointName(i),
                    true);
}

void FleetTestbed::KillCoordinator() {
  if (!coordinator_->alive()) {
    return;
  }
  coordinator_->Crash();
  coord_psu_->CutMains();
}

rlsim::Task<void> FleetTestbed::RecoverCoordinator() {
  if (coordinator_->alive()) {
    co_return;
  }
  coord_psu_->RestoreMains();
  // As after a guest crash: every decision the dead incarnation was promised
  // reaches the disk before the new one rescans the log.
  co_await coord_rapilog_->Quiesce();
  co_await coordinator_->Recover();
}

rlsim::Task<bool> FleetTestbed::ResolveAllInDoubt(rlsim::Duration budget) {
  const rlsim::TimePoint deadline = sim_.now() + budget;
  while (true) {
    bool quiet =
        coordinator_->alive() && coordinator_->pushes_outstanding() == 0;
    for (size_t i = 0; quiet && i < beds_.size(); ++i) {
      rldb::Database* db = shard_db(i);
      if (db == nullptr || !db->InDoubtGlobalIds().empty()) {
        quiet = false;
      }
    }
    if (quiet) {
      co_return true;
    }
    if (sim_.now() >= deadline) {
      co_return false;
    }
    co_await sim_.Sleep(rlsim::Duration::Millis(50));
  }
}

}  // namespace rlharness
