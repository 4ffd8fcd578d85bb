#include "tests/testlib/campaign_util.h"

namespace rltest {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

rlharness::TestbedOptions CampaignOptions(rlharness::DeploymentMode mode,
                                          rlharness::DiskSetup disks) {
  rlharness::TestbedOptions opts;
  opts.mode = mode;
  opts.disks = disks;
  opts.db.pool_pages = 512;
  opts.db.journal_pages = 300;
  opts.db.profile.checkpoint_dirty_pages = 128;
  return opts;
}

rlharness::TestbedOptions ReplicatedCampaignOptions(
    rlharness::DeploymentMode mode, rlrep::ShipMode ship, size_t replicas) {
  rlharness::TestbedOptions opt;
  opt.mode = mode;
  opt.disks = rlharness::DiskSetup::kSsdLog;
  opt.db.profile = rldb::PostgresLikeProfile();
  opt.db.pool_pages = 512;
  opt.db.journal_pages = 300;
  opt.db.profile.checkpoint_dirty_pages = 128;
  opt.replication.enabled = true;
  opt.replication.replicas = replicas;
  opt.replication.ship_mode = ship;
  return opt;
}

rlfault::QuorumAudit AuditReplicas(rlharness::Testbed& bed) {
  std::vector<const rlrep::ReplicaNode*> replicas;
  for (size_t r = 0; r < bed.replica_count(); ++r) {
    replicas.push_back(&bed.replica(r));
  }
  return rlfault::AuditQuorumDurability(*bed.shipper(), replicas);
}

rlwork::KvConfig WriteHeavyKv() {
  return rlwork::KvConfig{.key_space = 2000, .write_fraction = 1.0,
                          .ops_per_txn = 2};
}

CampaignResult RunSeededCampaign(uint64_t seed, rlsim::TraceEventSink* sink) {
  // Client RNG streams derive from their ids; fold the seed in so different
  // seeds run genuinely different workloads, not just different cut times.
  Simulator sim(seed);
  sim.set_tracer(sink);
  rlharness::TestbedOptions opts =
      CampaignOptions(rlharness::DeploymentMode::kRapiLog,
                      rlharness::DiskSetup::kSharedHdd);
  rlharness::Testbed bed(sim, opts);
  rlwork::KvWorkload kv(sim, rlwork::KvConfig{.key_space = 1000});
  rlfault::DurabilityChecker checker;
  rlwork::ClientDriver clients(sim, &checker);
  CampaignResult result;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, rlfault::DurabilityChecker& chk,
               CampaignResult& out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 200);
    const int id_base = static_cast<int>(s.rng().UniformInt(0, 1 << 20)) * 8;
    d.Spawn(4, w.Clients(b.db()), id_base);
    co_await s.Sleep(Duration::Millis(s.rng().UniformInt(80, 250)));
    b.CutPower();
    d.Stop();
    co_await s.Sleep(Duration::Seconds(1));
    co_await b.RestorePowerAndRecover();
    out.verdict = co_await chk.VerifyAfterRecovery(b.db());
  }(sim, bed, kv, clients, checker, result));
  sim.Run();
  result.committed = clients.stats().committed.value();
  return result;
}

}  // namespace rltest
