// Full-stack integration: power supply + disks + microkernel + VMM +
// RapiLog + database engine + workloads, across the paper's deployment
// configurations, including crash and power-cut durability campaigns.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/kv_workload.h"
#include "src/workload/tpcc_lite.h"

namespace rlharness {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

TestbedOptions SmallOptions(DeploymentMode mode, DiskSetup disks) {
  TestbedOptions opt;
  opt.mode = mode;
  opt.disks = disks;
  opt.db.profile = rldb::PostgresLikeProfile();
  opt.db.pool_pages = 512;
  opt.db.journal_pages = 300;
  opt.db.profile.checkpoint_dirty_pages = 128;
  return opt;
}

rlwork::TpccConfig SmallTpcc() {
  rlwork::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 30;
  cfg.items = 300;
  return cfg;
}

// Boots `bed`, loads TPC-C-lite and runs `clients` clients for `run`. The
// bed stays up for inspection.
rlwork::ClientDriver::Stats RunTpcc(Simulator& sim, Testbed& bed, int clients,
                                    Duration run) {
  rlwork::TpccLite tpcc(sim, SmallTpcc());
  rlwork::ClientDriver driver(sim);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::TpccLite& w,
               rlwork::ClientDriver& d, int n, Duration t) -> Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    d.Spawn(n, w.Clients(b.db()));
    co_await s.Sleep(t);
    d.Stop();
  }(sim, bed, tpcc, driver, clients, run));
  sim.Run();
  return driver.stats();
}

class ModeTest : public ::testing::TestWithParam<DeploymentMode> {};

TEST_P(ModeTest, TpccRunsAndRecoversCleanly) {
  Simulator sim;
  Testbed bed(sim, SmallOptions(GetParam(), DiskSetup::kSharedHdd));
  const auto stats = RunTpcc(sim, bed, 4, Duration::Seconds(2));
  EXPECT_GT(stats.committed.value(), 50);
  EXPECT_EQ(stats.machine_deaths.value(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeTest,
                         ::testing::Values(DeploymentMode::kNative,
                                           DeploymentMode::kVirt,
                                           DeploymentMode::kRapiLog,
                                           DeploymentMode::kUnsafeAsync));

TEST(TestbedTest, RapiLogFasterThanVirtOnSharedHdd) {
  auto run = [](DeploymentMode mode) {
    Simulator sim;
    Testbed bed(sim, SmallOptions(mode, DiskSetup::kSharedHdd));
    return RunTpcc(sim, bed, 8, Duration::Seconds(3)).committed.value();
  };
  const int64_t virt = run(DeploymentMode::kVirt);
  const int64_t rapi = run(DeploymentMode::kRapiLog);
  // The headline result: RapiLog beats synchronous logging on a shared
  // rotating disk by a comfortable margin.
  EXPECT_GT(rapi, virt * 3 / 2) << "virt=" << virt << " rapilog=" << rapi;
}

// Four checked TPC-C-lite clients for 700 ms, then a guest crash (or a
// power cut held past the hold-up window), recovery and the durability
// verdict; after a guest crash also the B-tree walk.
rlfault::VerifyResult TpccThroughFault(Simulator& sim, Testbed& bed,
                                       bool power_cut) {
  rlwork::TpccLite tpcc(sim, SmallTpcc());
  rlfault::DurabilityChecker checker;
  rlwork::ClientDriver driver(sim, &checker);
  rlfault::VerifyResult verdict;
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::TpccLite& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               bool cut, rlfault::VerifyResult& out) -> Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(700));
    if (cut) {
      b.CutPower();
      d.Stop();
      co_await s.Sleep(Duration::Seconds(1));
      co_await b.RestorePowerAndRecover();
      out = co_await chk.VerifyAfterRecovery(b.db());
    } else {
      b.CrashGuest();
      d.Stop();
      co_await s.Sleep(Duration::Millis(1));
      co_await b.RecoverAfterGuestCrash();
      out = co_await chk.VerifyAfterRecovery(b.db());
      co_await b.db().CheckTreeStructure();
    }
  }(sim, bed, tpcc, driver, checker, power_cut, verdict));
  sim.Run();
  return verdict;
}

TEST(TestbedTest, GuestCrashLosesNoAckedCommits) {
  Simulator sim;
  Testbed bed(sim, SmallOptions(DeploymentMode::kRapiLog,
                                DiskSetup::kSharedHdd));
  const auto verdict = TpccThroughFault(sim, bed, /*power_cut=*/false);
  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_FALSE(bed.rapilog()->lost_data());
}

TEST(TestbedTest, PowerCutLosesNoAckedCommitsWithRapiLog) {
  Simulator sim;
  Testbed bed(sim, SmallOptions(DeploymentMode::kRapiLog,
                                DiskSetup::kSharedHdd));
  const auto verdict = TpccThroughFault(sim, bed, /*power_cut=*/true);
  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_FALSE(bed.rapilog()->lost_data());
}

TEST(TestbedTest, PowerCutNativeSyncAlsoSafe) {
  // Synchronous native logging is the safety baseline: it must also lose
  // nothing (it is just slow).
  Simulator sim;
  Testbed bed(sim, SmallOptions(DeploymentMode::kNative,
                                DiskSetup::kSharedHdd));
  const auto verdict = TpccThroughFault(sim, bed, /*power_cut=*/true);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

TEST(TestbedTest, PowerCutUnsafeAsyncLosesData) {
  Simulator sim;
  Testbed bed(sim, SmallOptions(DeploymentMode::kUnsafeAsync,
                                DiskSetup::kSharedHdd));
  rlwork::KvWorkload kv(sim, rlwork::KvConfig{.key_space = 2000,
                                              .write_fraction = 1.0,
                                              .ops_per_txn = 2});
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  rlwork::ClientDriver clients(sim, &checker);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk, rlfault::VerifyResult& out,
               rlwork::ClientDriver& d) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 500);
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(500));
    b.CutPower();
    d.Stop();
    co_await s.Sleep(Duration::Seconds(1));
    co_await b.RestorePowerAndRecover();
    out = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, checker, verdict, clients));
  sim.Run();
  // Async commit acknowledges before the log reaches the disk: acked
  // transactions die with the volatile state.
  EXPECT_GT(verdict.lost_writes, 0u) << verdict.Summary();
}

TEST(TestbedTest, RepeatedGuestCrashCampaign) {
  Simulator sim;
  Testbed bed(sim, SmallOptions(DeploymentMode::kRapiLog,
                                DiskSetup::kSeparateHdd));
  rlwork::KvWorkload kv(sim, rlwork::KvConfig{.key_space = 1000});
  rlfault::DurabilityChecker checker;
  int bad_rounds = 0;
  rlwork::ClientDriver clients(sim, &checker);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               int& bad) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 200);
    rlsim::Rng rng(2024);
    for (int round = 0; round < 5; ++round) {
      d.Spawn(3, w.Clients(b.db()), round * 10);
      co_await s.Sleep(Duration::Millis(
          static_cast<int64_t>(rng.UniformInt(50, 400))));
      b.CrashGuest();
      d.Stop();
      co_await s.Sleep(Duration::Millis(1));
      co_await b.RecoverAfterGuestCrash();
      const auto verdict = co_await chk.VerifyAfterRecovery(b.db());
      if (!verdict.ok()) {
        ++bad;
      }
    }
  }(sim, bed, kv, clients, checker, bad_rounds));
  sim.Run();
  EXPECT_EQ(bad_rounds, 0);
  EXPECT_FALSE(bed.rapilog()->lost_data());
}

TEST(TestbedTest, DiskSetupsAllWork) {
  for (const DiskSetup setup :
       {DiskSetup::kSharedHdd, DiskSetup::kSeparateHdd, DiskSetup::kBbwc,
        DiskSetup::kSsdLog}) {
    Simulator sim;
    Testbed bed(sim, SmallOptions(DeploymentMode::kRapiLog, setup));
    EXPECT_GT(RunTpcc(sim, bed, 2, Duration::Millis(500)).committed.value(),
              10)
        << "setup " << ToString(setup);
  }
}

// What the log path saw during a short TPC-C run.
struct LogFlushCounts {
  int64_t wal_flush_cycles = 0;
  int64_t vblk_flushes = 0;         // sent to the log backend
  int64_t vblk_elided_flushes = 0;  // completed inside the guest
  int64_t rapilog_flush_calls = 0;
  bool vblk_volatile_write_cache = false;
};

LogFlushCounts RunAndCountLogFlushes(DeploymentMode mode) {
  Simulator sim;
  Testbed bed(sim, SmallOptions(mode, DiskSetup::kSharedHdd));
  EXPECT_GT(RunTpcc(sim, bed, 4, Duration::Millis(500)).committed.value(), 10)
      << ToString(mode);
  LogFlushCounts c;
  c.wal_flush_cycles = bed.db().log_writer().stats().flush_cycles.value();
  const auto& vblk = bed.guest_log_dev()->stats();
  c.vblk_flushes = vblk.flushes.value();
  c.vblk_elided_flushes = vblk.elided_flushes.value();
  c.vblk_volatile_write_cache = bed.guest_log_dev()->volatile_write_cache();
  if (bed.rapilog() != nullptr) {
    c.rapilog_flush_calls = bed.rapilog()->stats().flush_calls.value();
  }
  return c;
}

TEST(TestbedTest, RapiLogLogDiskReceivesNoFlush) {
  // RapiLog holds nothing volatile, so the guest's log disk completes every
  // WAL flush itself: no flush leaves the guest, and RapiLog sees none.
  const LogFlushCounts rapi = RunAndCountLogFlushes(DeploymentMode::kRapiLog);
  EXPECT_FALSE(rapi.vblk_volatile_write_cache);
  EXPECT_GT(rapi.wal_flush_cycles, 0);
  EXPECT_EQ(rapi.vblk_flushes, 0);
  EXPECT_EQ(rapi.vblk_elided_flushes, rapi.wal_flush_cycles);
  EXPECT_EQ(rapi.rapilog_flush_calls, 0);
}

TEST(TestbedTest, VirtLogDiskForwardsEveryFlush) {
  // Under kVirt the backend is a write-back partition: each WAL flush cycle
  // still costs one flush request to it.
  const LogFlushCounts virt = RunAndCountLogFlushes(DeploymentMode::kVirt);
  EXPECT_TRUE(virt.vblk_volatile_write_cache);
  EXPECT_GT(virt.wal_flush_cycles, 0);
  EXPECT_EQ(virt.vblk_flushes, virt.wal_flush_cycles);
  EXPECT_EQ(virt.vblk_elided_flushes, 0);
}

TEST(TestbedTest, WriteBackDataDiskReceivesEveryCheckpointFlush) {
  // A checkpoint flushes the data disk three times: after the journal, after
  // the in-place pages and after the metadata. Behind a write-back cache
  // each of them must reach the disk; a battery-backed cache has nothing to
  // flush, so the guest sends none.
  for (const DiskSetup setup : {DiskSetup::kSeparateHdd, DiskSetup::kBbwc}) {
    Simulator sim;
    Testbed bed(sim, SmallOptions(DeploymentMode::kRapiLog, setup));
    int64_t flushes_before = -1;
    int64_t flushes_after = -1;
    sim.Spawn([](Testbed& b, int64_t& before, int64_t& after) -> Task<void> {
      co_await b.Start();
      rldb::Database& db = b.db();
      const std::vector<uint8_t> value(db.options().profile.value_bytes, 1);
      for (uint64_t key = 0; key < 8; ++key) {
        const uint64_t txn = db.Begin();
        EXPECT_EQ(co_await db.Put(txn, key * 1000, value),
                  rldb::DbStatus::kOk);
        EXPECT_EQ(co_await db.Commit(txn), rldb::DbStatus::kOk);
      }
      EXPECT_GT(db.pool().dirty_count(), 0u);
      before = b.data_disk().stats().flushes.value();
      co_await db.Checkpoint();
      after = b.data_disk().stats().flushes.value();
      EXPECT_EQ(db.pool().dirty_count(), 0u);
    }(bed, flushes_before, flushes_after));
    sim.Run();
    ASSERT_GE(flushes_before, 0) << ToString(setup);
    if (setup == DiskSetup::kBbwc) {
      EXPECT_FALSE(bed.data_disk().volatile_write_cache());
      EXPECT_EQ(flushes_after, flushes_before);
    } else {
      EXPECT_TRUE(bed.data_disk().volatile_write_cache());
      EXPECT_EQ(flushes_after - flushes_before, 3);
    }
  }
}

}  // namespace
}  // namespace rlharness
