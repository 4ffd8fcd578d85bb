#include "src/rapilog/rapilog_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/power/power.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rapilog {
namespace {

using rlpow::PowerSupply;
using rlpow::PsuParams;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

// Adapter: powers a SimBlockDevice off/on with the rails.
class DiskPowerAdapter : public rlpow::PowerSink {
 public:
  explicit DiskPowerAdapter(SimBlockDevice& dev) : dev_(dev) {}
  void OnPowerDown() override { dev_.PowerLoss(); }
  void OnPowerRestore() override { dev_.PowerRestore(); }

 private:
  SimBlockDevice& dev_;
};

struct Fixture {
  explicit Fixture(RapiLogOptions options = {}, PsuParams psu_params = {})
      : psu(sim, psu_params),
        disk(sim,
             SimBlockDevice::Options{
                 .geometry = {.sector_count = 1 << 18},
                 .cache_policy = WriteCachePolicy::kWriteBack,
                 .name = "log-disk"},
             rlstor::MakeDefaultHdd()),
        disk_power(disk),
        rapilog(sim, psu, disk, options) {
    // RapiLog registered first (by the ctor above), then the disk: on power
    // down the guard has already run its course by the time rails drop.
    psu.Register(&disk_power);
  }

  Simulator sim;
  PowerSupply psu;
  SimBlockDevice disk;
  DiskPowerAdapter disk_power;
  RapiLogDevice rapilog;
};

std::vector<uint8_t> Block(size_t bytes, uint8_t fill) {
  return std::vector<uint8_t>(bytes, fill);
}

TEST(RapiLogDeviceTest, AckIsImmediate) {
  Fixture f;
  Duration ack_latency;
  f.sim.Spawn([](Simulator& s, RapiLogDevice& d, Duration& lat) -> Task<void> {
    const TimePoint t0 = s.now();
    const BlockStatus st = co_await d.Write(0, Block(4096, 1), false);
    lat = s.now() - t0;
    EXPECT_EQ(st, BlockStatus::kOk);
  }(f.sim, f.rapilog, ack_latency));
  f.sim.Run();
  // Microseconds, not a disk revolution.
  EXPECT_LT(ack_latency, Duration::Micros(10));
}

TEST(RapiLogDeviceTest, FlushIsNearlyFree) {
  Fixture f;
  Duration flush_latency;
  f.sim.Spawn([](Simulator& s, RapiLogDevice& d, Duration& lat) -> Task<void> {
    co_await d.Write(0, Block(4096, 1), false);
    const TimePoint t0 = s.now();
    const BlockStatus st = co_await d.Flush();
    lat = s.now() - t0;
    EXPECT_EQ(st, BlockStatus::kOk);
  }(f.sim, f.rapilog, flush_latency));
  f.sim.RunFor(Duration::Millis(1));
  EXPECT_LT(flush_latency, Duration::Micros(5));
}

TEST(RapiLogDeviceTest, DrainEventuallyWritesThrough) {
  Fixture f;
  f.sim.Spawn([](RapiLogDevice& d) -> Task<void> {
    for (uint64_t i = 0; i < 8; ++i) {
      co_await d.Write(i * 8, Block(4096, static_cast<uint8_t>(i)), false);
    }
  }(f.rapilog));
  f.sim.Run();  // quiescence: drain finishes
  EXPECT_EQ(f.rapilog.buffered_bytes(), 0u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(f.disk.image().IsDurable(i * 8)) << i;
  }
  EXPECT_GE(f.rapilog.stats().drained_writes.value(), 8);
}

TEST(RapiLogDeviceTest, ReadYourWritesBeforeDrain) {
  Fixture f;
  std::vector<uint8_t> got(4096);
  f.sim.Spawn([](RapiLogDevice& d, std::vector<uint8_t>& out) -> Task<void> {
    co_await d.Write(16, Block(4096, 0xAA), false);
    // Read immediately: data is still only in the trusted buffer.
    const BlockStatus st = co_await d.Read(16, out);
    EXPECT_EQ(st, BlockStatus::kOk);
  }(f.rapilog, got));
  f.sim.Run();
  EXPECT_EQ(got, Block(4096, 0xAA));
}

TEST(RapiLogDeviceTest, TailBlockAbsorption) {
  Fixture f;
  f.sim.Spawn([](RapiLogDevice& d) -> Task<void> {
    // Rewrite the same tail block five times (group-commit pattern).
    for (int v = 0; v < 5; ++v) {
      co_await d.Write(100, Block(512, static_cast<uint8_t>(v)), false);
    }
  }(f.rapilog));
  f.sim.RunFor(Duration::Micros(50));  // before any mechanical write lands
  EXPECT_GE(f.rapilog.stats().absorbed_writes.value(), 3);
  f.sim.Run();
  // Final version is what reached the disk.
  std::vector<uint8_t> out(512);
  f.disk.image().ReadDurable(100, out);
  EXPECT_EQ(out, Block(512, 4));
}

TEST(RapiLogDeviceTest, BudgetDerivedFromPowerWindow) {
  PsuParams psu;
  psu.system_load_watts = 200;  // 32 ms window, warned 0.2 ms in
  RapiLogOptions opt;
  opt.worst_case_drain_mbps = 40.0;
  opt.drain_start_reserve = Duration::Millis(20);
  Fixture f(opt, psu);
  // Window after warning = 32 ms - 0.2 ms; 20 ms reserved for the in-flight
  // request + the drain's first seek; half of the remaining 11.8 ms (the
  // budget's safety factor) at 40 MB/s = ~236 KB.
  EXPECT_NEAR(static_cast<double>(f.rapilog.max_buffer_bytes()), 236'000,
              10'000);
}

TEST(RapiLogDeviceTest, AdmissionControlBlocksWhenFull) {
  RapiLogOptions opt;
  opt.max_buffer_bytes_override = 16 * 1024;
  Fixture f(opt);
  TimePoint fifth_write_done;
  f.sim.Spawn([](Simulator& s, RapiLogDevice& d, TimePoint& t) -> Task<void> {
    // 4 x 4 KiB fills the 16 KiB budget; the 5th must wait for a drain.
    // (LBA 1000 puts the first block mid-rotation, so the drain's mechanical
    // write costs real rotational latency.)
    for (int i = 0; i < 5; ++i) {
      co_await d.Write(1000 + static_cast<uint64_t>(i) * 8, Block(4096, 1),
                       false);
    }
    t = s.now();
  }(f.sim, f.rapilog, fifth_write_done));
  f.sim.Run();
  // The fifth ack had to wait for at least one mechanical write (> 500 us).
  EXPECT_GT(fifth_write_done - TimePoint::Origin(), Duration::Micros(500));
  EXPECT_LE(f.rapilog.stats().buffer_occupancy.max(), 16 * 1024);
}

TEST(RapiLogDeviceTest, PowerCutWithGuardLosesNothing) {
  Fixture f;
  f.sim.Spawn([](Simulator& s, Fixture& fx) -> Task<void> {
    for (uint64_t i = 0; i < 32; ++i) {
      co_await fx.rapilog.Write(i * 8, Block(4096, static_cast<uint8_t>(i)),
                                false);
    }
    // Cut mains while plenty is still buffered.
    fx.psu.CutMains();
    co_await s.Sleep(Duration::Zero());
  }(f.sim, f));
  f.sim.Run();
  EXPECT_FALSE(f.rapilog.lost_data());
  EXPECT_FALSE(f.disk.powered());
  // Every acknowledged sector is durable on the medium.
  for (uint64_t i = 0; i < 32; ++i) {
    for (uint64_t s = 0; s < 8; ++s) {
      EXPECT_TRUE(f.disk.image().IsDurable(i * 8 + s)) << i << "," << s;
    }
  }
}

TEST(RapiLogDeviceTest, PowerCutWithoutGuardLosesData) {
  RapiLogOptions opt;
  opt.enable_power_guard = false;
  // Long queue + tiny hold-up: drain cannot finish in time.
  opt.max_buffer_bytes_override = 8 * 1024 * 1024;
  PsuParams psu;
  psu.system_load_watts = 390;  // ~16.4 ms window
  Fixture f(opt, psu);
  f.sim.Spawn([](Simulator& s, Fixture& fx) -> Task<void> {
    for (uint64_t i = 0; i < 512; ++i) {
      // Scattered (non-sequential) blocks: drain pays seeks.
      co_await fx.rapilog.Write((i * 337) % 4096 * 8, Block(4096, 1), false);
    }
    fx.psu.CutMains();
    co_await s.Sleep(Duration::Zero());
  }(f.sim, f));
  f.sim.Run();
  EXPECT_TRUE(f.rapilog.lost_data());
  EXPECT_GT(f.rapilog.stats().lost_bytes.value(), 0);
}

TEST(RapiLogDeviceTest, PowerFailWarningEndsALingerInProgress) {
  // The drain lingers (1 s) longer than the ~32 ms hold-up window. Left
  // alone it would still be lingering when the rails drop; the guard ends the
  // linger at the warning and flushes. Without the guard the block dies
  // buffered.
  for (const bool guard : {true, false}) {
    RapiLogOptions opt;
    opt.enable_power_guard = guard;
    Fixture f(opt);
    f.sim.Spawn([](Fixture& fx) -> Task<void> {
      co_await fx.rapilog.Write(0, Block(4096, 7), false);
      fx.psu.CutMains();
    }(f));
    f.sim.Run();
    EXPECT_EQ(f.rapilog.lost_data(), !guard) << "guard " << guard;
    std::vector<uint8_t> sector(512);
    f.disk.image().ReadDurable(0, sector);
    EXPECT_EQ(sector == Block(512, 7), guard) << "guard " << guard;
  }
}

TEST(RapiLogDeviceTest, WritesDuringEmergencyAreNotAcked) {
  Fixture f;
  BlockStatus late_status = BlockStatus::kOk;
  f.sim.Spawn([](Simulator& s, Fixture& fx, BlockStatus& out) -> Task<void> {
    co_await fx.rapilog.Write(0, Block(512, 1), false);
    fx.psu.CutMains();
    // Wait until the warning has fired.
    co_await s.Sleep(Duration::Millis(1));
    out = co_await fx.rapilog.Write(8, Block(512, 2), false);
  }(f.sim, f, late_status));
  f.sim.Run();
  EXPECT_EQ(late_status, BlockStatus::kDeviceOff);
}

TEST(RapiLogDeviceTest, QuiesceWaitsForEmptyBuffer) {
  Fixture f;
  uint64_t buffered_at_quiesce = 1;
  f.sim.Spawn([](Fixture& fx, uint64_t& out) -> Task<void> {
    for (uint64_t i = 0; i < 16; ++i) {
      co_await fx.rapilog.Write(i * 8, Block(4096, 3), false);
    }
    co_await fx.rapilog.Quiesce();
    out = fx.rapilog.buffered_bytes();
  }(f, buffered_at_quiesce));
  f.sim.Run();
  EXPECT_EQ(buffered_at_quiesce, 0u);
}

TEST(RapiLogDeviceTest, SurvivesRestoreAndContinues) {
  Fixture f;
  f.sim.Spawn([](Simulator& s, Fixture& fx) -> Task<void> {
    co_await fx.rapilog.Write(0, Block(512, 1), false);
    fx.psu.CutMains();
    co_await s.Sleep(fx.psu.HoldupWindow() + Duration::Millis(1));
    fx.psu.RestoreMains();
    const BlockStatus st = co_await fx.rapilog.Write(8, Block(512, 2), false);
    EXPECT_EQ(st, BlockStatus::kOk);
  }(f.sim, f));
  f.sim.Run();
  EXPECT_FALSE(f.rapilog.lost_data());
  EXPECT_TRUE(f.disk.image().IsDurable(8));
}

TEST(RapiLogDeviceTest, MisalignedWriteRejected) {
  Fixture f;
  BlockStatus st = BlockStatus::kOk;
  f.sim.Spawn([](RapiLogDevice& d, BlockStatus& out) -> Task<void> {
    out = co_await d.Write(0, Block(100, 1), false);
  }(f.rapilog, st));
  f.sim.Run();
  EXPECT_EQ(st, BlockStatus::kOutOfRange);
}

TEST(RapiLogDeviceTest, WriteBeyondTheLogDiskRejected) {
  // A write RapiLog could never drain must not be acknowledged: it would
  // sit in the buffer forever, and Quiesce() would never return.
  Fixture f;
  const uint64_t sectors = f.disk.geometry().sector_count;
  BlockStatus past_end = BlockStatus::kOk;
  BlockStatus straddling = BlockStatus::kOk;
  BlockStatus last_block = BlockStatus::kDeviceOff;
  BlockStatus read_past_end = BlockStatus::kOk;
  bool quiesced = false;
  f.sim.Spawn([](RapiLogDevice& d, uint64_t n, BlockStatus& a,
                 BlockStatus& b, BlockStatus& c, BlockStatus& r,
                 bool& q) -> Task<void> {
    a = co_await d.Write(n, Block(4096, 1), false);
    b = co_await d.Write(n - 4, Block(4096, 2), false);
    c = co_await d.Write(n - 8, Block(4096, 3), false);
    std::vector<uint8_t> out(4096);
    r = co_await d.Read(n - 4, out);
    co_await d.Quiesce();
    q = true;
  }(f.rapilog, sectors, past_end, straddling, last_block, read_past_end,
    quiesced));
  f.sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(past_end, BlockStatus::kOutOfRange);
  EXPECT_EQ(straddling, BlockStatus::kOutOfRange);
  EXPECT_EQ(last_block, BlockStatus::kOk);
  EXPECT_EQ(read_past_end, BlockStatus::kOutOfRange);
  EXPECT_TRUE(quiesced);
  EXPECT_EQ(f.rapilog.buffered_bytes(), 0u);
  EXPECT_EQ(f.rapilog.stats().acked_writes.value(), 1);
  EXPECT_EQ(f.disk.stats().failed_requests.value(), 0);
}

TEST(RapiLogDeviceTest, SteadyStreamDrainsOncePerThresholdCrossing) {
  // 64 KiB budget: the threshold is 32 KiB, eight 4 KiB log appends. One
  // append every 5 ms never crosses it alone, and the 1 s residency bound
  // never runs out, so the drain writes exactly one run per crossing
  // instead of chasing every append.
  RapiLogOptions opt;
  opt.max_buffer_bytes_override = 64 * 1024;
  Fixture f(opt);
  f.sim.Spawn([](Simulator& s, RapiLogDevice& d) -> Task<void> {
    for (uint64_t i = 0; i < 64; ++i) {
      co_await d.Write(i * 8, Block(4096, static_cast<uint8_t>(i)), false);
      co_await s.Sleep(Duration::Millis(5));
    }
  }(f.sim, f.rapilog));
  f.sim.Run();
  EXPECT_EQ(f.disk.stats().writes.value(), 8);
  EXPECT_EQ(f.rapilog.stats().drained_writes.value(), 64);
  EXPECT_EQ(f.rapilog.stats().drained_bytes.value(), 64 * 4096);
  EXPECT_EQ(f.rapilog.buffered_bytes(), 0u);
}

TEST(RapiLogDeviceTest, QuiesceEndsAResidencyWait) {
  Fixture f;
  Duration quiesce_took;
  int64_t disk_writes_before = -1;
  f.sim.Spawn([](Simulator& s, Fixture& fx, Duration& took,
                 int64_t& before) -> Task<void> {
    co_await fx.rapilog.Write(0, Block(4096, 5), false);
    co_await s.Sleep(Duration::Millis(10));
    before = fx.disk.stats().writes.value();  // still lingering
    const TimePoint t0 = s.now();
    co_await fx.rapilog.Quiesce();
    took = s.now() - t0;
  }(f.sim, f, quiesce_took, disk_writes_before));
  f.sim.Run();
  EXPECT_EQ(disk_writes_before, 0);
  // One mechanical write, not the rest of the 1 s residency bound.
  EXPECT_LT(quiesce_took, Duration::Millis(30));
  EXPECT_TRUE(f.disk.image().IsDurable(0));
}

TEST(RapiLogDeviceTest, BufferedBytesNeverExceedTheBudget) {
  // Four writers append with no think time, far faster than the drain.
  RapiLogOptions opt;
  opt.max_buffer_bytes_override = 32 * 1024;
  Fixture f(opt);
  uint64_t most_buffered = 0;
  for (uint64_t w = 0; w < 4; ++w) {
    f.sim.Spawn([](RapiLogDevice& d, uint64_t writer,
                   uint64_t& most) -> Task<void> {
      for (uint64_t i = 0; i < 32; ++i) {
        co_await d.Write((writer * 64 + i) * 8, Block(4096, 1), false);
        most = std::max(most, d.buffered_bytes());
      }
    }(f.rapilog, w, most_buffered));
  }
  f.sim.Run();
  EXPECT_LE(most_buffered, f.rapilog.max_buffer_bytes());
  EXPECT_GT(most_buffered, f.rapilog.max_buffer_bytes() / 2);
  EXPECT_LE(static_cast<uint64_t>(f.rapilog.stats().buffer_occupancy.max()),
            f.rapilog.max_buffer_bytes());
  EXPECT_EQ(f.rapilog.stats().drained_writes.value(), 4 * 32);
}

TEST(RapiLogDeviceTest, PowerCutWithHalfBudgetBacklogOnBusySpindle) {
  // Just under half the budget sits buffered (no drain run has started),
  // while another tenant keeps the shared spindle busy with scattered
  // writes. The guard must still get the whole backlog down inside the
  // hold-up window; without it the backlog dies.
  for (const bool guard : {true, false}) {
    RapiLogOptions opt;
    opt.enable_power_guard = guard;
    Fixture f(opt);
    const uint64_t blocks = f.rapilog.max_buffer_bytes() / 2 / 4096 - 1;
    int64_t drained_at_cut = -1, destaged_at_cut = -1;
    f.sim.Spawn([](Fixture& fx) -> Task<void> {
      for (uint64_t i = 0; fx.disk.powered(); ++i) {
        const uint64_t lba = 100'000 + (i * 7919) % 100'000;
        if (co_await fx.disk.Write(lba, Block(4096, 9), false) !=
            BlockStatus::kOk) {
          break;
        }
      }
    }(f));
    f.sim.Spawn([](Simulator& s, Fixture& fx, uint64_t n, int64_t& drained,
                   int64_t& destaged) -> Task<void> {
      for (uint64_t i = 0; i < n; ++i) {
        co_await fx.rapilog.Write(i * 8, Block(4096, static_cast<uint8_t>(i)),
                                  false);
        co_await s.Sleep(Duration::Micros(300));
      }
      drained = fx.rapilog.stats().drained_writes.value();
      destaged = fx.disk.stats().destaged_sectors.value();
      fx.psu.CutMains();
    }(f.sim, f, blocks, drained_at_cut, destaged_at_cut));
    f.sim.Run();
    EXPECT_EQ(drained_at_cut, 0) << "guard " << guard;
    EXPECT_GT(destaged_at_cut, 0) << "guard " << guard;
    EXPECT_EQ(f.rapilog.lost_data(), !guard) << "guard " << guard;
    if (guard) {
      for (uint64_t i = 0; i < blocks; ++i) {
        std::vector<uint8_t> sector(512);
        f.disk.image().ReadDurable(i * 8, sector);
        EXPECT_EQ(sector, Block(512, static_cast<uint8_t>(i))) << i;
      }
    }
  }
}

TEST(RapiLogDeviceTest, EntryAbsorbedMidWriteStaysBufferedAndDrainsNext) {
  Fixture f;
  uint64_t buffered_after_rewrite = 0;
  f.sim.Spawn([](Simulator& s, Fixture& fx, uint64_t& buffered) -> Task<void> {
    co_await fx.rapilog.Write(40, Block(4096, 1), false);
    s.Spawn(fx.rapilog.Quiesce());
    // The drain's write of version 1 is now in flight on the HDD.
    co_await s.Sleep(Duration::Micros(100));
    co_await fx.rapilog.Write(40, Block(4096, 2), false);
    buffered = fx.rapilog.buffered_bytes();
    co_await fx.rapilog.Quiesce();
  }(f.sim, f, buffered_after_rewrite));
  f.sim.Run();
  EXPECT_EQ(buffered_after_rewrite, 4096u);
  EXPECT_EQ(f.rapilog.stats().absorbed_writes.value(), 1);
  // Version 1's write did not retire the entry; version 2 drained next.
  EXPECT_EQ(f.disk.stats().writes.value(), 2);
  EXPECT_EQ(f.rapilog.stats().drained_writes.value(), 1);
  EXPECT_EQ(f.rapilog.buffered_bytes(), 0u);
  std::vector<uint8_t> sector(512);
  f.disk.image().ReadDurable(40, sector);
  EXPECT_EQ(sector, Block(512, 2));
}

// Forwards to a disk and records, at the moment each write completes, the
// bytes the write delivered: the disk model reads its source buffer then, so
// a buffer changed mid-write would show here.
class DeliveryRecorder : public rlstor::BlockDevice {
 public:
  explicit DeliveryRecorder(rlstor::BlockDevice& disk) : disk_(disk) {}

  const rlstor::Geometry& geometry() const override {
    return disk_.geometry();
  }
  bool volatile_write_cache() const override {
    return disk_.volatile_write_cache();
  }
  Task<BlockStatus> Read(uint64_t lba, std::span<uint8_t> out) override {
    return disk_.Read(lba, out);
  }
  Task<BlockStatus> Write(uint64_t lba, std::span<const uint8_t> data,
                          bool fua) override {
    const BlockStatus st = co_await disk_.Write(lba, data, fua);
    delivered.emplace_back(data.begin(), data.end());
    co_return st;
  }
  Task<BlockStatus> Flush() override { return disk_.Flush(); }

  std::vector<std::vector<uint8_t>> delivered;

 private:
  rlstor::BlockDevice& disk_;
};

// The drain gathers a run into a staging buffer the device reuses. A tail
// rewrite absorbed while that run's write is in flight lands in the entry,
// not in the bytes being written: the in-flight write delivers the version
// it started with, and the next run the rewrite. Runs of one entry and of
// two.
TEST(RapiLogDeviceTest, AbsorbedRewriteLeavesTheInFlightRunIntact) {
  for (const uint64_t entries : {1u, 2u}) {
    SCOPED_TRACE(entries);
    Simulator sim;
    PowerSupply psu(sim, PsuParams{});
    SimBlockDevice disk(sim,
                        SimBlockDevice::Options{
                            .geometry = {.sector_count = 1 << 18},
                            .cache_policy = WriteCachePolicy::kWriteBack,
                            .name = "log-disk"},
                        rlstor::MakeDefaultHdd());
    DeliveryRecorder recorder(disk);
    RapiLogDevice rapilog(sim, psu, recorder, RapiLogOptions{});
    const uint64_t tail = 40 + 8 * (entries - 1);
    sim.Spawn([](Simulator& s, RapiLogDevice& d, uint64_t n,
                 uint64_t tail_lba) -> Task<void> {
      for (uint64_t i = 0; i < n; ++i) {
        co_await d.Write(40 + 8 * i, Block(4096, 1), false);
      }
      s.Spawn(d.Quiesce());
      // The drain's run is now in flight on the HDD.
      co_await s.Sleep(Duration::Micros(100));
      co_await d.Write(tail_lba, Block(4096, 2), false);
      co_await d.Quiesce();
    }(sim, rapilog, entries, tail));
    sim.Run();
    EXPECT_EQ(rapilog.stats().absorbed_writes.value(), 1);
    ASSERT_EQ(recorder.delivered.size(), 2u);
    EXPECT_EQ(recorder.delivered[0], Block(4096 * entries, 1));
    EXPECT_EQ(recorder.delivered[1], Block(4096, 2));
    std::vector<uint8_t> sector(512);
    disk.image().ReadDurable(tail, sector);
    EXPECT_EQ(sector, Block(512, 2));
  }
}

TEST(RapiLogDeviceTest, ReportsNoVolatileWriteCache) {
  // The hold-up guarantee covers the buffer, whatever the disk below caches.
  Fixture f;
  EXPECT_TRUE(f.disk.volatile_write_cache());
  EXPECT_FALSE(f.rapilog.volatile_write_cache());
}

}  // namespace
}  // namespace rapilog
