// Full-stack replication: primary testbed + NetworkFabric + LogShipper +
// ReplicaNodes, exercising the E11 scenarios end to end — quorum-acked
// commits surviving total primary loss, async-mode loss bounded by lag, and
// partition/heal catch-up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/kv_workload.h"
#include "tests/testlib/campaign_util.h"

namespace rlharness {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

TEST(ReplicationIntegrationTest, QuorumCommitsSurviveTotalPrimaryLoss) {
  // The headline: the primary dies mid-shipment over lossy links, its log
  // disk is treated as lost with it, and the database recovers from a
  // replica's disk image without losing one acked commit.
  Simulator sim;
  TestbedOptions opt =
      rltest::ReplicatedCampaignOptions(DeploymentMode::kNative,
                                        rlrep::ShipMode::kQuorumAck,
                                        /*replicas=*/3);
  opt.replication.link.drop_probability = 0.05;
  Testbed bed(sim, opt);
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  rlfault::QuorumAudit audit;
  rlwork::ClientDriver clients(sim, &checker);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               rlfault::VerifyResult& out,
               rlfault::QuorumAudit& audit_out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 500);
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(700));
    b.CutPower();
    d.Stop();
    // Rails are down; frames already on the wire drain into the replicas.
    co_await s.Sleep(Duration::Seconds(1));
    audit_out = rltest::AuditReplicas(b);
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
    co_await b.db().CheckTreeStructure();
  }(sim, bed, kv, clients, checker, verdict, audit));
  sim.Run();

  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  // The mode's contract is that a majority holds every acked commit.
  EXPECT_GT(audit.sectors_expected, 0u);
  EXPECT_GE(audit.complete_replicas, bed.shipper()->quorum_size())
      << audit.Summary();
  EXPECT_GT(bed.shipper()->next_seq(), 0u);
}

TEST(ReplicationIntegrationTest, AsyncLossIsBoundedByReplicationLag) {
  // Async mode: partition every replica, keep committing (the primary never
  // blocks on the network), then lose the primary. Restoring from a replica
  // can only recover the pre-partition prefix — the commits in the lag
  // window are gone, which is exactly the bounded guarantee async offers.
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kNative,
                                rlrep::ShipMode::kAsync, /*replicas=*/2));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  uint64_t lag_at_cut = 0;
  rlwork::ClientDriver clients(sim, &checker);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               rlfault::VerifyResult& out, uint64_t& lag) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(300));
    b.PartitionReplica(0);
    b.PartitionReplica(1);
    co_await s.Sleep(Duration::Millis(300));
    lag = b.shipper()->next_seq() - b.shipper()->quorum_cursor();
    b.CutPower();
    d.Stop();
    co_await s.Sleep(Duration::Seconds(1));
    b.HealReplica(0);
    b.HealReplica(1);
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, clients, checker, verdict, lag_at_cut));
  sim.Run();

  EXPECT_GT(lag_at_cut, 0u);
  EXPECT_GT(verdict.lost_writes, 0u) << verdict.Summary();
  // But everything quorum-acked before the partition is still there: every
  // replica holds all of it, judged against the frozen quorum cursor.
  const rlfault::QuorumAudit audit = rltest::AuditReplicas(bed);
  EXPECT_EQ(audit.complete_replicas, bed.replica_count()) << audit.Summary();
}

TEST(ReplicationIntegrationTest, PartitionedReplicaCatchesUpAfterHeal) {
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kNative,
                                rlrep::ShipMode::kQuorumAck, /*replicas=*/3));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  uint64_t cursor_while_partitioned = 0;
  rlwork::ClientDriver clients(sim);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d,
               uint64_t& partitioned_cursor) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(200));
    b.PartitionReplica(2);
    co_await s.Sleep(Duration::Millis(400));
    partitioned_cursor = b.replica(2).cursor();
    b.HealReplica(2);
    co_await s.Sleep(Duration::Millis(400));
    d.Stop();
  }(sim, bed, kv, clients, cursor_while_partitioned));
  sim.Run();

  // It fell behind during the partition and retransmission closed the gap.
  EXPECT_LT(cursor_while_partitioned, bed.shipper()->next_seq());
  EXPECT_EQ(bed.replica(2).cursor(), bed.shipper()->next_seq());
  EXPECT_GT(bed.shipper()->stats().retransmits.value(), 0);
  const rlfault::QuorumAudit audit = rltest::AuditReplicas(bed);
  EXPECT_EQ(audit.complete_replicas, bed.replica_count()) << audit.Summary();
}

TEST(ReplicationIntegrationTest, RapiLogWithQuorumReplicationRecovers) {
  // The shipper sits above RapiLog: commits are locally guarded by the
  // trusted layer AND quorum-replicated. Recovery from the replica image
  // after a power cut must lose nothing.
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kRapiLog,
                                rlrep::ShipMode::kQuorumAck, /*replicas=*/3));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlfault::DurabilityChecker checker;
  rlfault::VerifyResult verdict;
  rlwork::ClientDriver clients(sim, &checker);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               rlfault::VerifyResult& out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(600));
    b.CutPower();
    d.Stop();
    co_await s.Sleep(Duration::Seconds(1));
    co_await b.RestorePowerAndRecoverFromReplica();
    out = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, clients, checker, verdict));
  sim.Run();

  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

TEST(ReplicationIntegrationTest, QuorumAckOverRapiLogWaitsForTheQuorum) {
  // RapiLog below the shipper caches nothing, but in quorum-ack mode the
  // shipper's Flush is the commit's durability point: the guest must keep
  // sending it, and a commit must wait for a majority of replicas. With all
  // replicas partitioned a commit stays pending until the links heal.
  Simulator sim;
  TestbedOptions opt = rltest::ReplicatedCampaignOptions(
      DeploymentMode::kRapiLog, rlrep::ShipMode::kQuorumAck, /*replicas=*/3);
  opt.replication.link.base_latency = Duration::Millis(2);
  Testbed bed(sim, opt);
  struct Outcome {
    int commits = 0;
    rlsim::Duration min_commit = Duration::Seconds(1);
    bool pending_while_partitioned = false;
    bool committed_after_heal = false;
  } out;
  sim.Spawn([](Simulator& s, Testbed& b, Outcome& o) -> Task<void> {
    co_await b.Start();
    const std::vector<uint8_t> value(b.db().options().profile.value_bytes, 7);
    for (uint64_t key = 0; key < 20; ++key) {
      const uint64_t txn = b.db().Begin();
      EXPECT_EQ(co_await b.db().Put(txn, key, value), rldb::DbStatus::kOk);
      const rlsim::TimePoint start = s.now();
      EXPECT_EQ(co_await b.db().Commit(txn), rldb::DbStatus::kOk);
      o.min_commit = std::min(o.min_commit, s.now() - start);
      ++o.commits;
    }
    for (size_t r = 0; r < b.replica_count(); ++r) {
      b.PartitionReplica(r);
    }
    bool done = false;
    s.Spawn([](Testbed& b2, const std::vector<uint8_t>& v,
               bool& finished) -> Task<void> {
      const uint64_t txn = b2.db().Begin();
      EXPECT_EQ(co_await b2.db().Put(txn, 100, v), rldb::DbStatus::kOk);
      EXPECT_EQ(co_await b2.db().Commit(txn), rldb::DbStatus::kOk);
      finished = true;
    }(b, value, done));
    co_await s.Sleep(Duration::Millis(200));
    o.pending_while_partitioned = !done;
    for (size_t r = 0; r < b.replica_count(); ++r) {
      b.HealReplica(r);
    }
    co_await s.Sleep(Duration::Millis(500));
    o.committed_after_heal = done;
  }(sim, bed, out));
  sim.Run();

  EXPECT_TRUE(bed.guest_log_dev()->volatile_write_cache());
  EXPECT_EQ(out.commits, 20);
  // A round trip to a replica is at least 4 ms.
  EXPECT_GE(out.min_commit, Duration::Millis(4));
  EXPECT_TRUE(out.pending_while_partitioned);
  EXPECT_TRUE(out.committed_after_heal);
  EXPECT_GE(bed.guest_log_dev()->stats().flushes.value(), out.commits + 1);
  EXPECT_EQ(bed.guest_log_dev()->stats().elided_flushes.value(), 0);
  EXPECT_GE(bed.shipper()->stats().quorum_wait.count(), out.commits + 1);
}

TEST(ReplicationIntegrationTest, AsyncShipperOverRapiLogTakesNoFlush) {
  // Async mode never waits on the network, so the shipper answers as RapiLog
  // below it does, and the guest completes its log flushes itself.
  Simulator sim;
  Testbed bed(sim,
              rltest::ReplicatedCampaignOptions(DeploymentMode::kRapiLog,
                                                rlrep::ShipMode::kAsync,
                                                /*replicas=*/3));
  rlwork::KvWorkload kv(sim, rltest::WriteHeavyKv());
  rlwork::ClientDriver clients(sim);
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 300);
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(300));
    d.Stop();
  }(sim, bed, kv, clients));
  sim.Run();

  EXPECT_FALSE(bed.guest_log_dev()->volatile_write_cache());
  EXPECT_GT(bed.guest_log_dev()->stats().elided_flushes.value(), 0);
  EXPECT_EQ(bed.guest_log_dev()->stats().flushes.value(), 0);
  EXPECT_EQ(bed.rapilog()->stats().flush_calls.value(), 0);
  EXPECT_GT(bed.shipper()->next_seq(), 0u);
}

}  // namespace
}  // namespace rlharness
