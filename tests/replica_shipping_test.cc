#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/network_fabric.h"
#include "src/replica/log_shipper.h"
#include "src/replica/replica_node.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"
#include "src/storage/disk_image.h"
#include "src/storage/disk_model.h"

namespace rlrep {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::BlockStatus;
using rlstor::kSectorSize;
using rlstor::SimBlockDevice;

constexpr uint64_t kSectors = 4096;
constexpr size_t kBlockSectors = 8;

// Primary-side log device + fabric + N replicas, assembled like the harness
// does but without the guest stack in the way.
struct Rig {
  Simulator sim;
  rlnet::NetworkFabric fabric;
  std::unique_ptr<SimBlockDevice> local;
  std::vector<std::unique_ptr<ReplicaNode>> replicas;
  std::unique_ptr<LogShipper> shipper;

  Rig(size_t replica_count, ShipMode mode, rlnet::LinkParams link,
      uint64_t seed = 42)
      : sim(seed), fabric(sim) {
    SimBlockDevice::Options opts;
    opts.geometry.sector_count = kSectors;
    opts.cache_policy = rlstor::WriteCachePolicy::kWriteBack;
    opts.name = "primary-log";
    local = std::make_unique<SimBlockDevice>(sim, opts,
                                             rlstor::MakeDefaultSsd());
    std::vector<std::string> names;
    for (size_t r = 0; r < replica_count; ++r) {
      names.push_back("replica-" + std::to_string(r));
      replicas.push_back(std::make_unique<ReplicaNode>(
          sim, fabric, names.back(), "primary"));
    }
    shipper = std::make_unique<LogShipper>(sim, fabric, "primary", names,
                                           *local, mode);
    for (const std::string& name : names) {
      fabric.Connect("primary", name, link);
    }
  }
};

std::vector<uint8_t> PatternBlock(uint64_t tag) {
  std::vector<uint8_t> block(kBlockSectors * kSectorSize);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(tag * 131 + i);
  }
  return block;
}

// Writes `count` pattern blocks back to back, then flushes.
Task<void> WriteBlocks(LogShipper& shipper, int count, bool* done) {
  for (int i = 0; i < count; ++i) {
    const std::vector<uint8_t> block = PatternBlock(i);
    const BlockStatus st = co_await shipper.Write(
        static_cast<uint64_t>(i) * kBlockSectors, block, /*fua=*/false);
    EXPECT_EQ(st, BlockStatus::kOk);
  }
  EXPECT_EQ(co_await shipper.Flush(), BlockStatus::kOk);
  *done = true;
}

// Sector-exact check of a replica's durable image against the pattern.
void ExpectReplicaHoldsBlocks(const ReplicaNode& replica, int count) {
  std::array<uint8_t, kSectorSize> sector;
  for (int i = 0; i < count; ++i) {
    const std::vector<uint8_t> block = PatternBlock(i);
    for (size_t s = 0; s < kBlockSectors; ++s) {
      const uint64_t lba = i * kBlockSectors + s;
      ASSERT_EQ(replica.disk().image().state(lba),
                rlstor::SectorState::kDurable)
          << "replica " << replica.name() << " lba " << lba;
      replica.disk().image().ReadDurable(lba, sector);
      EXPECT_TRUE(std::equal(sector.begin(), sector.end(),
                             block.begin() + s * kSectorSize))
          << "replica " << replica.name() << " lba " << lba;
    }
  }
}

TEST(LogShipperTest, AsyncReplicatesEverythingEventually) {
  Rig rig(2, ShipMode::kAsync, rlnet::LinkParams{});
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 20, &done));
  rig.sim.Run();

  EXPECT_TRUE(done);
  EXPECT_EQ(rig.shipper->next_seq(), 20u);
  EXPECT_EQ(rig.shipper->quorum_cursor(), 20u);
  for (const auto& replica : rig.replicas) {
    EXPECT_EQ(replica->cursor(), 20u);
    ExpectReplicaHoldsBlocks(*replica, 20);
  }
}

TEST(LogShipperTest, AsyncNeverBlocksOnADeadLink) {
  // Both replicas unreachable: async commits must still complete at local
  // disk speed, with the lag visible through the cursors.
  Rig rig(2, ShipMode::kAsync, rlnet::LinkParams{});
  rig.fabric.SetLinkUp("primary", "replica-0", false);
  rig.fabric.SetLinkUp("primary", "replica-1", false);
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 10, &done));
  rig.sim.RunFor(Duration::Seconds(1));

  EXPECT_TRUE(done);
  EXPECT_EQ(rig.shipper->next_seq(), 10u);
  EXPECT_EQ(rig.shipper->quorum_cursor(), 0u);
  EXPECT_EQ(rig.replicas[0]->cursor(), 0u);
}

TEST(LogShipperTest, QuorumFlushWaitsForMajority) {
  // 3 replicas, one partitioned: 2/3 is a majority, so commits proceed.
  Rig rig(3, ShipMode::kQuorumAck, rlnet::LinkParams{});
  rig.fabric.SetLinkUp("primary", "replica-2", false);
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 10, &done));
  rig.sim.RunFor(Duration::Seconds(1));

  EXPECT_TRUE(done);
  EXPECT_GE(rig.shipper->quorum_cursor(), 10u);
  EXPECT_EQ(rig.replicas[0]->cursor(), 10u);
  EXPECT_EQ(rig.replicas[1]->cursor(), 10u);
  EXPECT_EQ(rig.replicas[2]->cursor(), 0u);
}

TEST(LogShipperTest, QuorumFlushBlocksWithoutMajorityUntilHeal) {
  // 2 of 3 replicas partitioned: no majority, Flush must stall; healing one
  // link restores the quorum and unblocks it.
  Rig rig(3, ShipMode::kQuorumAck, rlnet::LinkParams{});
  rig.fabric.SetLinkUp("primary", "replica-1", false);
  rig.fabric.SetLinkUp("primary", "replica-2", false);
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 5, &done));
  rig.sim.RunFor(Duration::Seconds(1));
  EXPECT_FALSE(done);

  rig.fabric.SetLinkUp("primary", "replica-1", true);
  rig.sim.RunFor(Duration::Seconds(5));
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.replicas[1]->cursor(), 5u);
  ExpectReplicaHoldsBlocks(*rig.replicas[1], 5);
  // Catch-up went through the retransmission path.
  EXPECT_GT(rig.shipper->stats().retransmits.value(), 0);
}

TEST(LogShipperTest, LossyLinkIsHealedByRetransmission) {
  rlnet::LinkParams lossy;
  lossy.drop_probability = 0.25;
  Rig rig(2, ShipMode::kQuorumAck, lossy, /*seed=*/9);
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 30, &done));
  rig.sim.Run();

  EXPECT_TRUE(done);
  EXPECT_GT(rig.shipper->stats().retransmits.value(), 0);
  for (const auto& replica : rig.replicas) {
    EXPECT_EQ(replica->cursor(), 30u);
    ExpectReplicaHoldsBlocks(*replica, 30);
  }
}

TEST(LogShipperTest, DuplicateShipsAreIdempotent) {
  // Retransmissions on a lossy link produce duplicates at the receiver; the
  // cursor discipline must absorb them without corrupting the image.
  rlnet::LinkParams lossy;
  lossy.drop_probability = 0.4;
  Rig rig(1, ShipMode::kQuorumAck, lossy, /*seed=*/21);
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 25, &done));
  rig.sim.Run();

  EXPECT_TRUE(done);
  const ReplicaNode& replica = *rig.replicas[0];
  EXPECT_EQ(replica.cursor(), 25u);
  EXPECT_EQ(replica.stats().blocks_applied.value(), 25);
  EXPECT_GT(replica.stats().duplicates.value() + replica.stats().gaps.value(),
            0);
  ExpectReplicaHoldsBlocks(replica, 25);
}

TEST(LogShipperTest, RewritesOfTheSameLbaConvergeToNewest) {
  // WAL tail behaviour: the same block address is shipped repeatedly with
  // different contents; replicas must end up with the newest version.
  Rig rig(2, ShipMode::kQuorumAck, rlnet::LinkParams{});
  bool done = false;
  rig.sim.Spawn([](LogShipper& shipper, bool& d) -> Task<void> {
    for (int v = 0; v < 6; ++v) {
      const std::vector<uint8_t> block = PatternBlock(100 + v);
      EXPECT_EQ(co_await shipper.Write(0, block, /*fua=*/true),
                BlockStatus::kOk);
    }
    d = true;
  }(*rig.shipper, done));
  rig.sim.Run();

  EXPECT_TRUE(done);
  const std::vector<uint8_t> expected = PatternBlock(105);
  std::array<uint8_t, kSectorSize> sector;
  for (size_t s = 0; s < kBlockSectors; ++s) {
    rig.replicas[0]->disk().image().ReadDurable(s, sector);
    EXPECT_TRUE(std::equal(sector.begin(), sector.end(),
                           expected.begin() + s * kSectorSize));
  }
}

TEST(LogShipperTest, PowerCycleResetsLaggingReplicas) {
  // A replica partitioned across a primary power cycle cannot be caught up
  // by retransmission (the window died with the primary): it must be RESET
  // past the gap and then track new traffic again.
  Rig rig(2, ShipMode::kAsync, rlnet::LinkParams{});
  rig.fabric.SetLinkUp("primary", "replica-1", false);
  bool phase1 = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 8, &phase1));
  rig.sim.RunFor(Duration::Seconds(1));
  EXPECT_TRUE(phase1);
  EXPECT_EQ(rig.replicas[1]->cursor(), 0u);

  rig.shipper->PowerLoss();
  rig.sim.RunFor(Duration::Millis(100));
  rig.shipper->PowerRestore();
  rig.fabric.SetLinkUp("primary", "replica-1", true);
  rig.sim.RunFor(Duration::Seconds(5));

  // The lagging replica jumped the unrecoverable gap...
  EXPECT_EQ(rig.replicas[1]->cursor(), 8u);
  EXPECT_GT(rig.replicas[1]->stats().resets.value(), 0);

  // ...and applies fresh traffic shipped after the restore.
  bool phase2 = false;
  rig.sim.Spawn([](LogShipper& shipper, bool& d) -> Task<void> {
    const std::vector<uint8_t> block = PatternBlock(77);
    EXPECT_EQ(co_await shipper.Write(512, block, /*fua=*/false),
              BlockStatus::kOk);
    EXPECT_EQ(co_await shipper.Flush(), BlockStatus::kOk);
    d = true;
  }(*rig.shipper, phase2));
  rig.sim.Run();
  EXPECT_TRUE(phase2);
  EXPECT_EQ(rig.replicas[1]->cursor(), 9u);
}

TEST(LogShipperTest, AuditCursorFreezesAtPowerLoss) {
  Rig rig(2, ShipMode::kQuorumAck, rlnet::LinkParams{});
  bool done = false;
  rig.sim.Spawn(WriteBlocks(*rig.shipper, 12, &done));
  rig.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.shipper->audit_quorum_cursor(), 12u);

  rig.shipper->PowerLoss();
  EXPECT_EQ(rig.shipper->audit_quorum_cursor(), 12u);
  rig.shipper->PowerRestore();
  rig.sim.RunFor(Duration::Seconds(1));
  // Still frozen at the cut: the promise being audited is the one that was
  // outstanding when the machine died.
  EXPECT_EQ(rig.shipper->audit_quorum_cursor(), 12u);
  EXPECT_EQ(rig.shipper->shipped_blocks().size(), 12u);
}

TEST(LogShipperTest, WritesWhilePoweredOffFail) {
  Rig rig(1, ShipMode::kAsync, rlnet::LinkParams{});
  rig.shipper->PowerLoss();
  bool done = false;
  rig.sim.Spawn([](LogShipper& shipper, bool& d) -> Task<void> {
    const std::vector<uint8_t> block = PatternBlock(0);
    EXPECT_EQ(co_await shipper.Write(0, block, false),
              BlockStatus::kDeviceOff);
    EXPECT_EQ(co_await shipper.Flush(), BlockStatus::kDeviceOff);
    d = true;
  }(*rig.shipper, done));
  rig.sim.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.shipper->next_seq(), 0u);
}

TEST(LogShipperTest, VolatileWriteCacheFollowsModeAndLocalDevice) {
  // Quorum-ack: Flush is the commit's quorum durability point, so the
  // shipper always asks for it. Async: it answers as its local device does.
  for (const auto policy :
       {rlstor::WriteCachePolicy::kWriteBack,
        rlstor::WriteCachePolicy::kBatteryBackedWriteBack}) {
    for (const ShipMode mode : {ShipMode::kAsync, ShipMode::kQuorumAck}) {
      Simulator sim;
      rlnet::NetworkFabric fabric(sim);
      SimBlockDevice local(
          sim,
          SimBlockDevice::Options{.geometry = {.sector_count = kSectors},
                                  .cache_policy = policy},
          rlstor::MakeDefaultSsd());
      const LogShipper shipper(sim, fabric, "primary", {"replica-0"}, local,
                               mode);
      EXPECT_EQ(shipper.volatile_write_cache(),
                mode == ShipMode::kQuorumAck || local.volatile_write_cache())
          << ToString(mode) << " volatile cache "
          << local.volatile_write_cache();
    }
  }
}

}  // namespace
}  // namespace rlrep
