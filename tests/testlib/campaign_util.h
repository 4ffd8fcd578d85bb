// Shared plumbing for the fault-campaign tests: the standard small-engine
// testbed tuning (small pool + journal so checkpoints and recovery actually
// exercise their paths inside a sub-second episode), write-heavy workload
// configs, and the canonical seeded one-cut campaign used by the determinism
// tests.
//
// Keep behaviour-preserving: these helpers encode exactly the option values
// the campaign tests have always used, so extracting them must not change
// any test's event stream.
#pragma once

#include <cstdint>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/kv_workload.h"

namespace rltest {

// Small-engine tuning on top of the given deployment: 512-page pool,
// 300-page journal, checkpoint at 128 dirty pages.
rlharness::TestbedOptions CampaignOptions(rlharness::DeploymentMode mode,
                                          rlharness::DiskSetup disks);

// The replication campaigns' deployment: SSD log, Postgres-like profile,
// the same small-engine tuning, and `replicas` nodes in `ship` mode.
rlharness::TestbedOptions ReplicatedCampaignOptions(
    rlharness::DeploymentMode mode, rlrep::ShipMode ship, size_t replicas);

// The replication oracle over every replica of `bed`, judged against the
// quorum cursor frozen at the primary's last power cut.
rlfault::QuorumAudit AuditReplicas(rlharness::Testbed& bed);

// 100% writes, 2 ops per transaction: every commit is a durability promise.
rlwork::KvConfig WriteHeavyKv();

struct CampaignResult {
  rlfault::VerifyResult verdict;
  int64_t committed = 0;
};

// The canonical seeded campaign: RapiLog on a shared HDD, four clients, one
// power cut at a seed-derived instant, recover, verify. Same seed, same
// result — the determinism property the sweep tests pin. An optional trace
// sink is installed on the simulator for the divergence-audit tests.
CampaignResult RunSeededCampaign(uint64_t seed,
                                 rlsim::TraceEventSink* sink = nullptr);

}  // namespace rltest
