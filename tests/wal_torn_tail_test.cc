// Property test: WAL recovery under random corruption of the last log
// sector. A power cut tears whatever write was in flight, and the in-flight
// write is always the tail block — so recovery must tolerate arbitrary
// damage to the newest sector: garbage contents, or a handful of flipped
// bits that a real torn write would leave behind.
//
// Oracle (valid-prefix): the scan returns a dense LSN prefix of exactly what
// the writer appended — no invented or altered records (the block CRC is the
// defence), and nothing missing except records living in the corrupted tail
// block itself.
#include <gtest/gtest.h>

#include <vector>

#include "src/db/wal.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::kSectorSize;
using rlstor::SimBlockDevice;

// A 512-byte block holds at most ~11 of our records (smallest encoding is
// 35 bytes of framing + 8 bytes of value); 16 is a safe ceiling on how many
// records corrupting one block may take out.
constexpr size_t kMaxRecordsPerBlock = 16;

// The reused-block case's log device: a ring of four 8 KiB blocks.
constexpr uint64_t kRingBlocks = 4;

void RunTornTailCase(uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed);
  Simulator sim(seed);
  SimBlockDevice dev(sim,
                     SimBlockDevice::Options{.geometry = {.sector_count =
                                                              1 << 16}},
                     rlstor::MakeDefaultSsd());
  const EngineProfile profile = InnodbLikeProfile();  // 512-byte blocks
  LogWriter writer(sim, dev, profile, DurabilityMode::kSync);
  writer.ResumeAt(0, 1);

  // Case-local RNG, independent of the simulator's streams.
  rlsim::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  const int appends = static_cast<int>(rng.UniformInt(40, 250));
  std::vector<LogRecord> appended;
  appended.reserve(static_cast<size_t>(appends));
  for (int i = 0; i < appends; ++i) {
    LogRecord rec;
    rec.type = rng.Chance(0.1) ? LogRecordType::kCommit
                               : LogRecordType::kUpdate;
    rec.txn_id = static_cast<uint64_t>(i) / 4 + 1;
    rec.key = rng.UniformInt(0, 5000);
    if (rec.type == LogRecordType::kUpdate) {
      rec.value.assign(rng.UniformInt(8, 120),
                       static_cast<uint8_t>(rng.UniformInt(0, 255)));
    }
    appended.push_back(rec);
  }

  sim.Spawn([](Simulator& s, LogWriter& w, rlsim::Rng& r,
               std::vector<LogRecord>& recs) -> Task<void> {
    for (LogRecord& rec : recs) {
      const uint64_t lsn = w.Append(rec);
      rec.lsn = lsn;
      co_await w.WaitDurable(lsn);
      if (r.Chance(0.3)) {
        co_await s.Sleep(Duration::Micros(r.UniformInt(10, 300)));
      }
    }
    co_await w.Shutdown();
  }(sim, writer, rng, appended));
  sim.Run();
  ASSERT_EQ(writer.durable_lsn(), static_cast<uint64_t>(appends));

  // Power-cycle: the volatile write cache dies, the durable medium stays.
  dev.PowerLoss();
  dev.PowerRestore();

  // Corrupt the newest durable sector — the tail block a real cut would
  // have torn mid-write.
  const std::vector<uint64_t> durable = dev.image().DurableSectorList();
  ASSERT_FALSE(durable.empty());
  const uint64_t tail = durable.back();
  std::vector<uint8_t> sector(kSectorSize);
  dev.image().ReadDurable(tail, sector);
  if (rng.Chance(0.5)) {
    // Total garbage: the drive wrote noise.
    for (uint8_t& b : sector) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
  } else {
    // A few flipped bits: the subtler corruption CRCs exist to catch.
    const int flips = static_cast<int>(rng.UniformInt(1, 8));
    for (int f = 0; f < flips; ++f) {
      const uint64_t bit = rng.UniformInt(0, kSectorSize * 8 - 1);
      sector[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
  dev.image().WriteDurable(tail, sector);

  LogScanResult scan;
  sim.Spawn([](SimBlockDevice& d, const EngineProfile& p,
               LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(d, p, 0);
  }(dev, profile, scan));
  sim.Run();

  // Dense prefix, and every surviving record is bit-for-bit what was
  // appended — corruption may truncate history, never rewrite it.
  ASSERT_LE(scan.records.size(), appended.size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].lsn, i + 1);
    EXPECT_EQ(scan.records[i].type, appended[i].type);
    EXPECT_EQ(scan.records[i].txn_id, appended[i].txn_id);
    EXPECT_EQ(scan.records[i].key, appended[i].key);
    EXPECT_EQ(scan.records[i].value, appended[i].value);
  }
  // Only records inside the one corrupted block may be missing.
  EXPECT_GE(scan.records.size() + kMaxRecordsPerBlock, appended.size())
      << "corrupting the tail sector must not take out earlier blocks";
}

TEST(WalTornTailTest, ValidPrefixUnderRandomTailCorruption) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    RunTornTailCase(seed);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// A torn first write of a reused ring block. The new block's first sector
// lands (header and the first four records); the rest of the block still
// holds the older lap's block, whose records are whole and CRC-clean, and
// one of them starts exactly where the new prefix ends. The scan must end
// at the new prefix: the stale record's LSN does not rise.
TEST(WalTornTailTest, TornRewriteOfAReusedBlockEndsAtTheNewPrefix) {
  Simulator sim(1);
  const EngineProfile profile = PostgresLikeProfile();  // 16-sector blocks
  const uint64_t sectors_per_block = profile.log_block_bytes / kSectorSize;
  SimBlockDevice dev(
      sim,
      SimBlockDevice::Options{
          .geometry = {.sector_count = kRingBlocks * sectors_per_block}},
      rlstor::MakeDefaultSsd());
  LogWriter writer(sim, dev, profile, DurabilityMode::kSync);
  writer.ResumeAt(0, 1);
  ASSERT_EQ(writer.ring().blocks, kRingBlocks);
  // 120-byte records (35 of framing, 85 of value): 68 fill a block's
  // payload, and four fill the payload part of its first sector, so in
  // every lap a record starts at the second sector.
  const std::vector<uint8_t> value(85, 0x5A);
  constexpr size_t kPerBlock = 68;
  constexpr size_t kNewRecords = 8;
  std::vector<uint8_t> lap1_block0(profile.log_block_bytes);
  std::vector<uint64_t> new_lsns;
  sim.Spawn([](LogWriter& w, SimBlockDevice& d, std::vector<uint8_t> v,
               std::vector<uint8_t>& lap1,
               std::vector<uint64_t>& lsns) -> Task<void> {
    // Lap 1 fills blocks 0..3.
    for (size_t i = 0; i < kRingBlocks * kPerBlock; ++i) {
      co_await w.WaitDurable(w.Append(LogRecordType::kUpdate, 1, i, v));
    }
    EXPECT_EQ(w.current_block_index(), kRingBlocks - 1);
    co_await d.Read(0, lap1);
    // Block 0 is no longer needed: block 4 may take its position. All eight
    // records go into block 4's first write.
    w.SetReuseFloor(w.current_block_index());
    for (size_t i = 0; i < kNewRecords; ++i) {
      lsns.push_back(w.Append(LogRecordType::kUpdate, 2, i, v));
    }
    EXPECT_EQ(w.current_block_index(), kRingBlocks);
    co_await w.WaitDurable(lsns.back());
    co_await w.Shutdown();
  }(writer, dev, value, lap1_block0, new_lsns));
  sim.Run();
  ASSERT_EQ(new_lsns.size(), kNewRecords);

  // The tear: of block 4's write only the first sector landed.
  for (uint64_t s = 1; s < sectors_per_block; ++s) {
    dev.image().WriteDurable(
        s, std::span<const uint8_t>(lap1_block0).subspan(s * kSectorSize,
                                                         kSectorSize));
  }
  dev.PowerLoss();
  dev.PowerRestore();

  LogScanResult scan;
  sim.Spawn([](SimBlockDevice& d, const EngineProfile& p,
               LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(d, p, kRingBlocks);
  }(dev, profile, scan));
  sim.Run();
  ASSERT_EQ(scan.records.size(), 4u);
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].lsn, new_lsns[i]);
  }
  EXPECT_EQ(scan.next_block, kRingBlocks + 1);
  EXPECT_EQ(scan.next_lsn, new_lsns[3] + 1);
}

}  // namespace
}  // namespace rldb
