// Property sweeps over fault timing.
//
// 1. WAL prefix property: cut device power at a sweep of instants while a
//    writer streams records; whatever recovery scans back must be a dense
//    LSN prefix, and must include everything whose WaitDurable completed
//    before the cut.
// 2. Full-testbed determinism: the same seed reproduces a fault campaign
//    bit-for-bit (commit counts and verification results identical).
// 3. UPS configuration: with a UPS the RapiLog budget is effectively
//    unbounded and the guarantee still holds.
// 4. Replicated sweep: quorum-ack shipping across a sweep of cut instants —
//    at every instant a majority of replicas holds every acked sector and
//    recovery from the best replica image loses nothing.
#include <gtest/gtest.h>

#include <memory>

#include "src/db/errors.h"
#include "src/db/wal.h"
#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"
#include "src/workload/kv_workload.h"
#include "tests/testlib/campaign_util.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::SimBlockDevice;

class WalCrashPointTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(WalCrashPointTest, ValidPrefixAtEveryCutInstant) {
  const Duration cut_at = Duration::Micros(GetParam());
  Simulator sim(3);
  SimBlockDevice dev(sim,
                     SimBlockDevice::Options{.geometry = {.sector_count =
                                                              1 << 18}},
                     rlstor::MakeDefaultHdd());
  const EngineProfile profile = InnodbLikeProfile();  // 512-byte blocks
  LogWriter writer(sim, dev, profile, DurabilityMode::kSync);
  writer.ResumeAt(0, 1);

  uint64_t acked_durable_lsn = 0;
  // A writer streaming small records and tracking what was acked durable.
  sim.Spawn([](Simulator& s, LogWriter& w, uint64_t& acked) -> Task<void> {
    try {
      for (int i = 0; i < 10'000; ++i) {
        LogRecord rec;
        rec.type = LogRecordType::kUpdate;
        rec.txn_id = 1;
        rec.key = static_cast<uint64_t>(i);
        rec.value.assign(48, static_cast<uint8_t>(i));
        const uint64_t lsn = w.Append(std::move(rec));
        co_await w.WaitDurable(lsn);
        acked = lsn;
        co_await s.Sleep(Duration::Micros(50));
      }
    } catch (const EngineHalted&) {
      // Writer shut down mid-wait; fine.
    }
  }(sim, writer, acked_durable_lsn));

  sim.Schedule(cut_at, [&dev] { dev.PowerLoss(); });
  sim.RunFor(cut_at + Duration::Seconds(1));

  // Recover: scan the durable medium.
  dev.PowerRestore();
  LogScanResult scan;
  sim.Spawn([](SimBlockDevice& d, const EngineProfile& p,
               LogScanResult& out) -> Task<void> {
    out = co_await ScanLog(d, p, 0);
  }(dev, profile, scan));
  sim.Run();

  // Dense LSN prefix.
  for (size_t i = 0; i < scan.records.size(); ++i) {
    ASSERT_EQ(scan.records[i].lsn, i + 1);
  }
  // Everything acknowledged durable before the cut is present.
  EXPECT_GE(scan.records.size(), acked_durable_lsn)
      << "acked-durable records missing after cut at " << GetParam() << "us";
}

INSTANTIATE_TEST_SUITE_P(CutInstants, WalCrashPointTest,
                         ::testing::Values(100, 1'000, 5'000, 9'137, 17'000,
                                           33'000, 50'000, 77'777, 120'000,
                                           250'000));

TEST(DeterminismTest, SameSeedSameCampaignOutcome) {
  const auto a = rltest::RunSeededCampaign(1234);
  const auto b = rltest::RunSeededCampaign(1234);
  EXPECT_TRUE(a.verdict.ok());
  EXPECT_TRUE(b.verdict.ok());
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.verdict.keys_checked, b.verdict.keys_checked);
  EXPECT_GT(a.committed, 0);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  const auto a = rltest::RunSeededCampaign(1);
  const auto b = rltest::RunSeededCampaign(2);
  EXPECT_NE(a.committed, b.committed);
}

TEST(UpsTest, UpsGivesEffectivelyUnboundedBudgetAndKeepsGuarantee) {
  Simulator sim(9);
  rlharness::TestbedOptions opts =
      rltest::CampaignOptions(rlharness::DeploymentMode::kRapiLog,
                              rlharness::DiskSetup::kSharedHdd);
  opts.psu.ups_runtime = Duration::Seconds(60);
  rlharness::Testbed bed(sim, opts);
  EXPECT_GT(bed.rapilog()->max_buffer_bytes(), 1024ull * 1024 * 1024);

  rlwork::KvWorkload kv(sim, rlwork::KvConfig{.key_space = 1000});
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk,
               rlfault::VerifyResult& out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 200);
    auto stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, &chk);
    co_await s.Sleep(Duration::Millis(200));
    b.CutPower();
    *stop = true;
    // The UPS carries the drain for up to a minute; then rails drop.
    co_await s.Sleep(Duration::Seconds(70));
    co_await b.RestorePowerAndRecover();
    out = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, checker, verdict));
  sim.Run();
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_FALSE(bed.rapilog()->lost_data());
}

// 4. Replicated sweep: the quorum-ack topology under the same
// cut-at-every-instant discipline. At each instant: the frozen quorum cursor
// is honoured by at least a majority of replicas (per-sector audit), and
// restoring from the best replica image loses no acked commit.
class ReplicatedCrashPointTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ReplicatedCrashPointTest, QuorumHoldsAtEveryCutInstant) {
  const Duration cut_at = Duration::Millis(GetParam());
  Simulator sim(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  rlharness::TestbedOptions opt = rltest::ReplicatedCampaignOptions(
      rlharness::DeploymentMode::kNative, rlrep::ShipMode::kQuorumAck,
      /*replicas=*/3);
  rlharness::Testbed bed(sim, opt);
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  size_t replicas_passing = 0;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk, Duration cut,
               rlfault::VerifyResult& out, size_t& passing) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    auto stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, &chk);
    co_await s.Sleep(cut);
    b.CutPower();
    *stop = true;
    // Frames already on the wire drain into the replicas; then audit the
    // quorum promise against the cursor frozen at the cut.
    co_await s.Sleep(Duration::Seconds(1));
    for (size_t r = 0; r < b.replica_count(); ++r) {
      if (rlfault::AuditReplicaDurability(*b.shipper(), b.replica(r)).ok()) {
        ++passing;
      }
    }
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
    co_await b.db().CheckTreeStructure();
  }(sim, bed, kv, checker, cut_at, verdict, replicas_passing));
  sim.Run();

  EXPECT_GE(replicas_passing, bed.shipper()->quorum_size());
  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

INSTANTIATE_TEST_SUITE_P(CutInstants, ReplicatedCrashPointTest,
                         ::testing::Values(60, 130, 275, 410, 590));

// 5. Redo-stream sweep: every cut instant is recovered twice — with one
// redo stream and with eight — on bit-identical crash images (the pre-crash
// phase is a pure function of the seed and the recovery knobs only exist on
// the reopen path). The two recoveries must agree on the durability verdict,
// the commit count, and the full committed contents.
struct RedoModeOutcome {
  rlfault::VerifyResult verdict;
  int64_t committed = 0;
  uint64_t content_hash = 0;
  int64_t recovered_records = 0;
  int64_t redo_skipped_by_horizon = 0;
};

RedoModeOutcome RunRedoModeEpisode(int64_t cut_ms, uint32_t partitions) {
  Simulator sim(static_cast<uint64_t>(cut_ms) * 2654435761u + 5);
  rlharness::TestbedOptions opt = rltest::CampaignOptions(
      rlharness::DeploymentMode::kRapiLog, rlharness::DiskSetup::kSharedHdd);
  opt.db.recovery.partitions = partitions;
  rlharness::Testbed bed(sim, opt);
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  RedoModeOutcome out;
  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk, Duration cut,
               RedoModeOutcome& res) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 200);
    auto stop = rltest::SpawnFleet(s, w, b.db(), 0, 4, &chk);
    co_await s.Sleep(cut);
    b.CutPower();
    *stop = true;
    co_await s.Sleep(Duration::Seconds(1));
    co_await b.RestorePowerAndRecover();
    res.verdict = co_await chk.VerifyAfterRecovery(b.db());
    res.content_hash = co_await b.db().ContentHash();
    res.recovered_records = b.db().stats().recovered_records.value();
    res.redo_skipped_by_horizon =
        b.db().stats().redo_skipped_by_horizon.value();
    co_await b.db().CheckTreeStructure();
  }(sim, bed, kv, checker, Duration::Millis(cut_ms), out));
  sim.Run();
  out.committed = kv.stats().committed.value();
  return out;
}

class RedoModeCrashPointTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(RedoModeCrashPointTest, OneAndEightStreamsAgreeAtEveryCutInstant) {
  const RedoModeOutcome k1 = RunRedoModeEpisode(GetParam(), 1);
  const RedoModeOutcome k8 = RunRedoModeEpisode(GetParam(), 8);
  EXPECT_TRUE(k1.verdict.ok()) << k1.verdict.Summary();
  EXPECT_TRUE(k8.verdict.ok()) << k8.verdict.Summary();
  // Identical pre-crash images must yield identical workloads...
  EXPECT_EQ(k1.committed, k8.committed);
  EXPECT_GT(k1.committed, 0);
  EXPECT_EQ(k1.verdict.keys_checked, k8.verdict.keys_checked);
  // ...and identical recovered state and replay accounting.
  EXPECT_EQ(k1.content_hash, k8.content_hash);
  EXPECT_EQ(k1.recovered_records, k8.recovered_records);
  EXPECT_EQ(k1.redo_skipped_by_horizon, k8.redo_skipped_by_horizon);
}

INSTANTIATE_TEST_SUITE_P(CutInstants, RedoModeCrashPointTest,
                         ::testing::Values(80, 140, 230, 350, 520));

}  // namespace
}  // namespace rldb
