#include "src/storage/block_device.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/simulator.h"

namespace rlstor {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

std::vector<uint8_t> Pattern(size_t bytes, uint8_t fill) {
  return std::vector<uint8_t>(bytes, fill);
}

SimBlockDevice::Options SmallDisk(WriteCachePolicy policy) {
  SimBlockDevice::Options opts;
  opts.geometry.sector_count = 1 << 20;  // 512 MiB
  opts.cache_policy = policy;
  return opts;
}

TEST(BlockDeviceTest, WriteThenReadBack) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  BlockStatus wst = BlockStatus::kDeviceOff;
  std::vector<uint8_t> got(4096);
  sim.Spawn([](SimBlockDevice& d, BlockStatus& ws,
               std::vector<uint8_t>& out) -> Task<void> {
    const auto data = Pattern(4096, 0x5A);
    ws = co_await d.Write(100, data, /*fua=*/false);
    co_await d.Read(100, out);
  }(dev, wst, got));
  sim.Run();
  EXPECT_EQ(wst, BlockStatus::kOk);
  EXPECT_EQ(got, Pattern(4096, 0x5A));
}

TEST(BlockDeviceTest, CachedWriteIsFastButVolatile) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  Duration write_latency;
  sim.Spawn([](Simulator& s, SimBlockDevice& d, Duration& lat) -> Task<void> {
    const TimePoint start = s.now();
    co_await d.Write(100, Pattern(4096, 1), /*fua=*/false);
    lat = s.now() - start;
    // Cut power right after the ack, before any destage completes.
    d.PowerLoss();
  }(sim, dev, write_latency));
  sim.Run();
  EXPECT_LT(write_latency, Duration::Millis(1));
  // The acknowledged data did not survive: the sector reverted to unwritten.
  EXPECT_EQ(dev.image().state(100), SectorState::kUnwritten);
}

TEST(BlockDeviceTest, FuaWriteIsSlowButDurable) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  Duration write_latency;
  sim.Spawn([](Simulator& s, SimBlockDevice& d, Duration& lat) -> Task<void> {
    const TimePoint start = s.now();
    co_await d.Write(100, Pattern(4096, 1), /*fua=*/true);
    lat = s.now() - start;
    d.PowerLoss();
  }(sim, dev, write_latency));
  sim.Run();
  // Mechanical access: far slower than a cache transfer (tens of µs).
  EXPECT_GT(write_latency, Duration::Micros(200));
  EXPECT_TRUE(dev.image().IsDurable(100));
}

TEST(BlockDeviceTest, FlushHardensCachedWrites) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  BlockStatus flush_status = BlockStatus::kDeviceOff;
  sim.Spawn([](SimBlockDevice& d, BlockStatus& fs) -> Task<void> {
    for (uint64_t i = 0; i < 10; ++i) {
      co_await d.Write(100 + i * 8, Pattern(512, 2), /*fua=*/false);
    }
    fs = co_await d.Flush();
    d.PowerLoss();
  }(dev, flush_status));
  sim.Run();
  EXPECT_EQ(flush_status, BlockStatus::kOk);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(dev.image().IsDurable(100 + i * 8)) << i;
  }
}

TEST(BlockDeviceTest, BbwcIsFastAndDurable) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kBatteryBackedWriteBack),
                     MakeDefaultHdd());
  Duration write_latency;
  sim.Spawn([](Simulator& s, SimBlockDevice& d, Duration& lat) -> Task<void> {
    const TimePoint start = s.now();
    co_await d.Write(70, Pattern(4096, 4), /*fua=*/false);
    lat = s.now() - start;
    d.PowerLoss();
  }(sim, dev, write_latency));
  sim.Run();
  EXPECT_LT(write_latency, Duration::Millis(1));
  EXPECT_TRUE(dev.image().IsDurable(70));
}

TEST(BlockDeviceTest, DestageEventuallyHardensWithoutFlush) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  sim.Spawn([](SimBlockDevice& d) -> Task<void> {
    co_await d.Write(200, Pattern(8192, 5), /*fua=*/false);
  }(dev));
  sim.Run();  // run to quiescence: destage loop drains the cache
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(dev.image().IsDurable(200 + i)) << i;
  }
  EXPECT_EQ(dev.dirty_sectors(), 0u);
  EXPECT_GE(dev.stats().destaged_sectors.value(), 16);
}

// A write that lands on a sector while that sector's destage is in flight
// stays cached and dirty until its own destage: a power cut leaves the older
// contents on the medium, never the newer write, which nothing flushed.
TEST(BlockDeviceTest, DestageHardensNoWriteThatLandsMidFlight) {
  constexpr uint64_t kLba = 100;
  // One sector, cut once A's destage completes (B's own destage, in flight
  // then, lands nothing of a single sector); four, cut mid-destage (a torn
  // multi-sector write lands half its sectors).
  for (const auto& [sectors, cut_mid_destage] :
       {std::pair{1u, false}, std::pair{4u, true}}) {
    Simulator sim;
    SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                       MakeDefaultSsd());
    uint64_t dirty_mid_destage = 0;
    sim.Spawn([](Simulator& s, SimBlockDevice& d, uint32_t n, bool cut_mid,
                 uint64_t& dirty) -> Task<void> {
      co_await d.Write(kLba, Pattern(n * kSectorSize, 0xAA), /*fua=*/false);
      // The destage of A starts at once and programs for ~270 µs.
      co_await s.Sleep(Duration::Micros(50));
      co_await d.Write(kLba, Pattern(n * kSectorSize, 0xBB), /*fua=*/false);
      co_await s.Sleep(Duration::Micros(100));
      dirty = d.dirty_sectors();
      while (!cut_mid && d.stats().destaged_sectors.value() == 0) {
        co_await s.Sleep(Duration::Micros(1));
      }
      d.PowerLoss();
    }(sim, dev, sectors, cut_mid_destage, dirty_mid_destage));
    sim.Run();
    EXPECT_EQ(dirty_mid_destage, sectors) << sectors;
    for (uint32_t i = 0; i < sectors; ++i) {
      std::vector<uint8_t> durable(kSectorSize);
      dev.image().ReadDurable(kLba + i, durable);
      EXPECT_TRUE(durable == Pattern(kSectorSize, 0xAA) ||
                  durable == Pattern(kSectorSize, 0))
          << sectors << " sectors, sector " << i << " holds "
          << int{durable[0]};
    }
  }
}

TEST(BlockDeviceTest, RequestsAfterPowerLossFail) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  BlockStatus w = BlockStatus::kOk;
  BlockStatus r = BlockStatus::kOk;
  BlockStatus f = BlockStatus::kOk;
  dev.PowerLoss();
  std::vector<uint8_t> out(512);
  sim.Spawn([](SimBlockDevice& d, BlockStatus& w2, BlockStatus& r2,
               BlockStatus& f2, std::vector<uint8_t>& o) -> Task<void> {
    w2 = co_await d.Write(1, Pattern(512, 1), false);
    r2 = co_await d.Read(1, o);
    f2 = co_await d.Flush();
  }(dev, w, r, f, out));
  sim.Run();
  EXPECT_EQ(w, BlockStatus::kDeviceOff);
  EXPECT_EQ(r, BlockStatus::kDeviceOff);
  EXPECT_EQ(f, BlockStatus::kDeviceOff);
  EXPECT_EQ(dev.stats().failed_requests.value(), 3);
}

TEST(BlockDeviceTest, PowerRestoreRevivesDevice) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  dev.PowerLoss();
  dev.PowerRestore();
  BlockStatus w = BlockStatus::kDeviceOff;
  sim.Spawn([](SimBlockDevice& d, BlockStatus& ws) -> Task<void> {
    ws = co_await d.Write(1, Pattern(512, 1), false);
  }(dev, w));
  sim.Run();
  EXPECT_EQ(w, BlockStatus::kOk);
}

TEST(BlockDeviceTest, OutOfRangeRejected) {
  Simulator sim;
  SimBlockDevice::Options opts = SmallDisk(WriteCachePolicy::kWriteBack);
  opts.geometry.sector_count = 16;
  SimBlockDevice dev(sim, opts, MakeDefaultHdd());
  BlockStatus w1 = BlockStatus::kOk;
  BlockStatus w2 = BlockStatus::kOk;
  sim.Spawn([](SimBlockDevice& d, BlockStatus& a, BlockStatus& b)
                -> Task<void> {
    a = co_await d.Write(16, Pattern(512, 1), false);   // past the end
    b = co_await d.Write(15, Pattern(1024, 1), false);  // straddles the end
  }(dev, w1, w2));
  sim.Run();
  EXPECT_EQ(w1, BlockStatus::kOutOfRange);
  EXPECT_EQ(w2, BlockStatus::kOutOfRange);
}

TEST(BlockDeviceTest, MisalignedSizeRejected) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  BlockStatus w = BlockStatus::kOk;
  sim.Spawn([](SimBlockDevice& d, BlockStatus& ws) -> Task<void> {
    ws = co_await d.Write(0, Pattern(100, 1), false);
  }(dev, w));
  sim.Run();
  EXPECT_EQ(w, BlockStatus::kOutOfRange);
}

TEST(BlockDeviceTest, SequentialCachedWritesThroughputReasonable) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  // 16 MiB of sequential cached writes should complete far faster than the
  // medium could do them synchronously at random.
  const TimePoint start = sim.now();
  sim.Spawn([](SimBlockDevice& d) -> Task<void> {
    const auto chunk = Pattern(64 * 1024, 6);
    for (uint64_t i = 0; i < 256; ++i) {
      co_await d.Write(i * 128, chunk, false);
    }
    co_await d.Flush();
  }(dev));
  sim.Run();
  const Duration elapsed = sim.now() - start;
  // 16 MiB at ~media rate (about 1 MiB per 8.3 ms revolution) is ~140 ms;
  // allow generous headroom but far less than random-access time.
  EXPECT_LT(elapsed, Duration::Millis(500));
  EXPECT_GT(elapsed, Duration::Millis(50));
}

TEST(BlockDeviceTest, SyncCommitPatternLimitedByRotation) {
  Simulator sim;
  SimBlockDevice dev(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                     MakeDefaultHdd());
  // Sequential-append FUA writes with think time between them: each one
  // should wait for the platter, i.e. ~one commit per revolution.
  int commits = 0;
  sim.Spawn([](Simulator& s, SimBlockDevice& d, int& n) -> Task<void> {
    uint64_t lba = 0;
    for (int i = 0; i < 50; ++i) {
      co_await s.Sleep(Duration::Micros(300));  // "transaction work"
      co_await d.Write(lba, Pattern(512, 7), /*fua=*/true);
      lba += 1;
      ++n;
    }
  }(sim, dev, commits));
  sim.Run();
  EXPECT_EQ(commits, 50);
  const double seconds = sim.now().ToSecondsF();
  const double commits_per_sec = commits / seconds;
  // 7200 rpm = 120 revolutions/s. Expect commit rate in that ballpark and
  // definitely nowhere near cache speeds.
  EXPECT_LT(commits_per_sec, 200.0);
  EXPECT_GT(commits_per_sec, 60.0);
}

TEST(BlockDeviceTest, OnlyWriteBackReportsAVolatileCache) {
  // Battery-backed writes are durable on acknowledgement, so only a
  // write-back cache needs a flush.
  Simulator sim;
  const SimBlockDevice write_back(sim, SmallDisk(WriteCachePolicy::kWriteBack),
                                  MakeDefaultHdd());
  const SimBlockDevice bbwc(
      sim, SmallDisk(WriteCachePolicy::kBatteryBackedWriteBack),
      MakeDefaultHdd());
  EXPECT_TRUE(write_back.volatile_write_cache());
  EXPECT_FALSE(bbwc.volatile_write_cache());
}

}  // namespace
}  // namespace rlstor
