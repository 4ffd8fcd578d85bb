#include "src/db/wal.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/db/profile.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"
#include "src/storage/partition.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

TEST(LogRecordCodecTest, RoundTrip) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.lsn = 42;
  rec.txn_id = 7;
  rec.key = 0xDEADBEEF;
  rec.value = {1, 2, 3, 4, 5};
  const auto wire = EncodeRecord(rec);
  size_t offset = 0;
  const auto decoded = DecodeRecord(wire, &offset);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->lsn, 42u);
  EXPECT_EQ(decoded->txn_id, 7u);
  EXPECT_EQ(decoded->key, 0xDEADBEEFu);
  EXPECT_EQ(decoded->value, rec.value);
  EXPECT_EQ(offset, wire.size());
}

TEST(LogRecordCodecTest, CorruptionDetected) {
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.lsn = 1;
  rec.txn_id = 1;
  auto wire = EncodeRecord(rec);
  wire[10] ^= 0xFF;
  size_t offset = 0;
  EXPECT_FALSE(DecodeRecord(wire, &offset).has_value());
}

TEST(LogRecordCodecTest, TruncationDetected) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.value.resize(50, 9);
  auto wire = EncodeRecord(rec);
  wire.resize(wire.size() - 10);
  size_t offset = 0;
  EXPECT_FALSE(DecodeRecord(wire, &offset).has_value());
}

TEST(LogRecordCodecTest, SequenceDecodes) {
  std::vector<uint8_t> stream;
  for (uint64_t i = 1; i <= 10; ++i) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.lsn = i;
    rec.txn_id = 1;
    rec.key = i * 100;
    rec.value = {static_cast<uint8_t>(i)};
    const auto wire = EncodeRecord(rec);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  size_t offset = 0;
  uint64_t expect = 1;
  while (auto rec = DecodeRecord(stream, &offset)) {
    EXPECT_EQ(rec->lsn, expect);
    EXPECT_EQ(rec->key, expect * 100);
    ++expect;
  }
  EXPECT_EQ(expect, 11u);
}

struct WalFixture {
  explicit WalFixture(EngineProfile profile = PostgresLikeProfile(),
                      DurabilityMode mode = DurabilityMode::kSync,
                      WriteCachePolicy policy = WriteCachePolicy::kWriteBack)
      : dev(sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 18},
                                    .cache_policy = policy,
                                    .name = "wal-dev"},
            rlstor::MakeDefaultHdd()),
        writer(sim, dev, profile, mode),
        profile_(profile) {
    writer.ResumeAt(0, 1);
  }

  LogRecord MakeUpdate(uint64_t txn, uint64_t key, uint8_t fill,
                       size_t vlen = 64) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn_id = txn;
    rec.key = key;
    rec.value.assign(vlen, fill);
    return rec;
  }

  Simulator sim;
  SimBlockDevice dev;
  LogWriter writer;
  EngineProfile profile_;
};

TEST(LogWriterTest, AppendAssignsMonotonicLsns) {
  WalFixture f;
  const uint64_t a = f.writer.Append(f.MakeUpdate(1, 10, 1));
  const uint64_t b = f.writer.Append(f.MakeUpdate(1, 11, 2));
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(f.writer.next_lsn(), b + 1);
}

TEST(LogWriterTest, WaitDurableBlocksUntilFlushed) {
  WalFixture f;
  TimePoint done;
  f.sim.Spawn([](Simulator& s, WalFixture& fx, TimePoint& out) -> Task<void> {
    const uint64_t lsn = fx.writer.Append(fx.MakeUpdate(1, 1, 1));
    co_await fx.writer.WaitDurable(lsn);
    out = s.now();
    EXPECT_GE(fx.writer.durable_lsn(), lsn);
  }(f.sim, f, done));
  f.sim.Run();
  // A mechanical write happened: not instantaneous.
  EXPECT_GT(done - TimePoint::Origin(), Duration::Micros(30));
}

TEST(LogWriterTest, DurableDataSurvivesPowerLoss) {
  WalFixture f;
  f.sim.Spawn([](WalFixture& fx) -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      const uint64_t lsn = fx.writer.Append(
          fx.MakeUpdate(1, static_cast<uint64_t>(i), 3));
      co_await fx.writer.WaitDurable(lsn);
    }
    fx.dev.PowerLoss();
  }(f));
  f.sim.Run();
  f.dev.PowerRestore();
  // Scan what is on the medium: all 20 updates must be there.
  LogScanResult result;
  f.sim.Spawn([](WalFixture& fx, LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(fx.dev, fx.profile_, 0);
  }(f, result));
  f.sim.Run();
  EXPECT_EQ(result.records.size(), 20u);
  for (size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].lsn, i + 1);
  }
}

TEST(LogWriterTest, UnflushedTailLostButPrefixValid) {
  WalFixture f(PostgresLikeProfile(), DurabilityMode::kAsyncUnsafe);
  f.sim.Spawn([](Simulator& s, WalFixture& fx) -> Task<void> {
    // Async mode: appends never wait. Cut power quickly; some suffix of the
    // records will be lost.
    for (int i = 0; i < 200; ++i) {
      fx.writer.Append(fx.MakeUpdate(1, static_cast<uint64_t>(i), 4, 256));
      co_await s.Sleep(Duration::Micros(20));
    }
    fx.dev.PowerLoss();
  }(f.sim, f));
  f.sim.Run();
  f.dev.PowerRestore();
  LogScanResult result;
  f.sim.Spawn([](WalFixture& fx, LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(fx.dev, fx.profile_, 0);
  }(f, result));
  f.sim.Run();
  EXPECT_LT(result.records.size(), 200u);  // something was lost
  // What survived is a dense LSN prefix.
  for (size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i].lsn, i + 1);
  }
}

TEST(LogWriterTest, GroupCommitBatchesConcurrentCommitters) {
  EngineProfile p = InnodbLikeProfile();
  p.group_commit_window = Duration::Micros(200);
  WalFixture f(p);
  int done = 0;
  for (int c = 0; c < 10; ++c) {
    f.sim.Spawn([](WalFixture& fx, int id, int& out) -> Task<void> {
      const uint64_t lsn = fx.writer.Append(
          fx.MakeUpdate(static_cast<uint64_t>(id), 1, 1));
      co_await fx.writer.WaitDurable(lsn);
      ++out;
    }(f, c, done));
  }
  f.sim.Run();
  EXPECT_EQ(done, 10);
  // All ten commits shared very few flush cycles.
  EXPECT_LE(f.writer.stats().flush_cycles.value(), 3);
}

TEST(LogWriterTest, RecordsSpanMultipleBlocks) {
  EngineProfile p = InnodbLikeProfile();  // 512-byte blocks
  WalFixture f(p);
  f.sim.Spawn([](WalFixture& fx) -> Task<void> {
    // Each record ~100 bytes: forces many block seals.
    uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
      last = fx.writer.Append(fx.MakeUpdate(1, static_cast<uint64_t>(i), 5));
    }
    co_await fx.writer.WaitDurable(last);
  }(f));
  f.sim.Run();
  LogScanResult result;
  f.sim.Spawn([](WalFixture& fx, LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(fx.dev, fx.profile_, 0);
  }(f, result));
  f.sim.Run();
  EXPECT_EQ(result.records.size(), 50u);
  EXPECT_GT(result.next_block, 5u);
}

TEST(LogWriterTest, ResumeContinuesFromScan) {
  WalFixture f;
  f.sim.Spawn([](WalFixture& fx) -> Task<void> {
    const uint64_t lsn = fx.writer.Append(fx.MakeUpdate(1, 1, 1));
    co_await fx.writer.WaitDurable(lsn);
  }(f));
  f.sim.Run();

  // Second writer resumes after scanning.
  LogScanResult scan;
  f.sim.Spawn([](WalFixture& fx, LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(fx.dev, fx.profile_, 0);
  }(f, scan));
  f.sim.Run();

  LogWriter writer2(f.sim, f.dev, f.profile_, DurabilityMode::kSync);
  writer2.ResumeAt(scan.next_block, scan.next_lsn);
  f.sim.Spawn([](WalFixture& fx, LogWriter& w) -> Task<void> {
    LogRecord rec;
    rec.type = LogRecordType::kCommit;
    rec.txn_id = 2;
    const uint64_t lsn = w.Append(std::move(rec));
    co_await w.WaitDurable(lsn);
    (void)fx;
  }(f, writer2));
  f.sim.Run();

  LogScanResult rescan;
  f.sim.Spawn([](WalFixture& fx, LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(fx.dev, fx.profile_, 0);
  }(f, rescan));
  f.sim.Run();
  EXPECT_EQ(rescan.records.size(), 2u);
  EXPECT_EQ(rescan.records.back().txn_id, 2u);
  EXPECT_EQ(rescan.records.back().lsn, scan.next_lsn);
}

TEST(LogWriterTest, FullLogAreaIsANamedCheckFailure) {
  // A log partition with room for four blocks. Running off its end is a
  // sizing error: it must surface as a check failure naming the cause, not
  // halt the writer as if the device had lost power.
  Simulator sim;
  const EngineProfile profile = PostgresLikeProfile();
  SimBlockDevice disk(
      sim,
      SimBlockDevice::Options{.geometry = {.sector_count = 1 << 16},
                              .cache_policy = WriteCachePolicy::kWriteBack,
                              .name = "disk"},
      rlstor::MakeDefaultSsd());
  rlstor::PartitionDevice log_area(
      disk, /*first_lba=*/1024,
      /*sector_count=*/4 * profile.log_block_bytes / rlstor::kSectorSize);
  LogWriter writer(sim, log_area, profile, DurabilityMode::kSync);
  writer.ResumeAt(0, 1);
  sim.Spawn([](LogWriter& w) -> Task<void> {
    const std::vector<uint8_t> value(200, 7);
    for (uint64_t key = 0;; ++key) {
      co_await w.WaitDurable(
          w.Append(LogRecordType::kUpdate, 1, key, value));
    }
  }(writer));
  std::string failure;
  try {
    sim.Run();
  } catch (const rlsim::CheckFailure& e) {
    failure = e.what();
  }
  EXPECT_NE(failure.find("log area full"), std::string::npos) << failure;
  EXPECT_FALSE(writer.halted());
  // Every record of the four blocks that fit was made durable.
  EXPECT_GT(writer.durable_lsn(), 0u);
  EXPECT_EQ(writer.current_block_index(), 4u);
}

// The ring is the profile's size in whole blocks, or the whole device if
// that is smaller; a writer that keeps every record takes the whole device.
TEST(LogRingTest, RingIsTheProfilesSizeOrTheWholeDevice) {
  Simulator sim;
  EngineProfile profile = PostgresLikeProfile();  // 8 KiB blocks
  const uint64_t sectors_per_block =
      profile.log_block_bytes / rlstor::kSectorSize;
  SimBlockDevice large(sim,
                       SimBlockDevice::Options{
                           .geometry = {.sector_count =
                                            8192 * sectors_per_block}},
                       rlstor::MakeDefaultSsd());
  SimBlockDevice small(sim,
                       SimBlockDevice::Options{
                           .geometry = {.sector_count =
                                            5 * sectors_per_block - 1}},
                       rlstor::MakeDefaultSsd());
  EXPECT_EQ(LogRing(large, profile).blocks,
            kLogRingBytes / profile.log_block_bytes);
  EXPECT_EQ(LogRing(small, profile).blocks, 4u);
  const LogRing ring(large, profile);
  EXPECT_EQ(ring.Lba(ring.blocks + 3), 3 * sectors_per_block);
  profile.log_ring_bytes = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(LogRing(large, profile).blocks, 8192u);
}

}  // namespace
}  // namespace rldb
