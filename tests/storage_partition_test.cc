#include "src/storage/partition.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace rlstor {
namespace {

using rlsim::Simulator;
using rlsim::Task;

struct Fixture {
  Fixture()
      : disk(sim,
             SimBlockDevice::Options{.geometry = {.sector_count = 1000}},
             MakeDefaultSsd()),
        low(disk, 0, 100),
        high(disk, 100, 900) {}

  Simulator sim;
  SimBlockDevice disk;
  PartitionDevice low;
  PartitionDevice high;
};

std::vector<uint8_t> Buf(uint8_t fill) {
  return std::vector<uint8_t>(kSectorSize, fill);
}

TEST(PartitionTest, GeometryIsWindowed) {
  Fixture f;
  EXPECT_EQ(f.low.geometry().sector_count, 100u);
  EXPECT_EQ(f.high.geometry().sector_count, 900u);
}

TEST(PartitionTest, LbaTranslation) {
  Fixture f;
  f.sim.Spawn([](Fixture& fx) -> Task<void> {
    co_await fx.low.Write(5, Buf(0xAA), true);
    co_await fx.high.Write(5, Buf(0xBB), true);
  }(f));
  f.sim.Run();
  std::vector<uint8_t> got(kSectorSize);
  f.disk.image().Read(5, got);
  EXPECT_EQ(got, Buf(0xAA));
  f.disk.image().Read(105, got);
  EXPECT_EQ(got, Buf(0xBB));
}

TEST(PartitionTest, PartitionsDoNotOverlap) {
  Fixture f;
  f.sim.Spawn([](Fixture& fx) -> Task<void> {
    co_await fx.low.Write(99, Buf(1), true);
    co_await fx.high.Write(0, Buf(2), true);
    std::vector<uint8_t> a(kSectorSize);
    std::vector<uint8_t> b(kSectorSize);
    co_await fx.low.Read(99, a);
    co_await fx.high.Read(0, b);
    EXPECT_EQ(a, Buf(1));
    EXPECT_EQ(b, Buf(2));
  }(f));
  f.sim.Run();
}

TEST(PartitionTest, OutOfRangeRejectedAtPartitionBoundary) {
  Fixture f;
  BlockStatus w1 = BlockStatus::kOk;
  BlockStatus w2 = BlockStatus::kOk;
  f.sim.Spawn([](Fixture& fx, BlockStatus& a, BlockStatus& b) -> Task<void> {
    a = co_await fx.low.Write(100, Buf(1), true);  // one past the window
    std::vector<uint8_t> two(2 * kSectorSize, 1);
    b = co_await fx.low.Write(99, two, true);  // straddles the boundary
  }(f, w1, w2));
  f.sim.Run();
  EXPECT_EQ(w1, BlockStatus::kOutOfRange);
  EXPECT_EQ(w2, BlockStatus::kOutOfRange);
}

TEST(PartitionTest, ConstructionBeyondParentRejected) {
  Fixture f;
  EXPECT_THROW(PartitionDevice(f.disk, 900, 200), rlsim::CheckFailure);
}

TEST(PartitionTest, EmergencyModePropagatesToParent) {
  Fixture f;
  f.low.EnterEmergencyMode();
  EXPECT_TRUE(f.disk.emergency_mode());
  // Non-FUA traffic through the *other* partition is rejected too (one
  // spindle, one emergency).
  BlockStatus st = BlockStatus::kOk;
  f.sim.Spawn([](Fixture& fx, BlockStatus& out) -> Task<void> {
    out = co_await fx.high.Write(1, Buf(3), /*fua=*/false);
  }(f, st));
  f.sim.Run();
  EXPECT_EQ(st, BlockStatus::kDeviceOff);
}

TEST(PartitionTest, FlushReachesParent) {
  Fixture f;
  f.sim.Spawn([](Fixture& fx) -> Task<void> {
    co_await fx.low.Write(1, Buf(7), /*fua=*/false);
    co_await fx.low.Flush();
  }(f));
  f.sim.Run();
  EXPECT_TRUE(f.disk.image().IsDurable(1));
}

TEST(PartitionTest, VolatileWriteCacheIsTheParents) {
  Fixture f;
  EXPECT_TRUE(f.disk.volatile_write_cache());
  EXPECT_TRUE(f.low.volatile_write_cache());
  SimBlockDevice bbwc(
      f.sim,
      SimBlockDevice::Options{
          .geometry = {.sector_count = 1000},
          .cache_policy = WriteCachePolicy::kBatteryBackedWriteBack},
      MakeDefaultSsd());
  const PartitionDevice part(bbwc, 0, 100);
  EXPECT_FALSE(part.volatile_write_cache());
}

}  // namespace
}  // namespace rlstor
