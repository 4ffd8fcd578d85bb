// Determinism of the parallel experiment fan-out: a chaos campaign and a
// TPC-C sweep must produce identical aggregate results at any --jobs count
// and across repeated runs at the same count. Parallelism may only change
// wall-clock, never a reported number — that is the contract DESIGN.md's
// determinism section pins and CI's perf-smoke job re-checks end to end.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"

namespace {

using rlchaos::ChaosExplorer;
using rlchaos::ExplorerOptions;
using rlchaos::ExplorerReport;

ExplorerReport RunCampaignWithJobs(int jobs) {
  ExplorerOptions opts;
  opts.base_seed = 1;
  opts.episodes = 8;
  opts.jobs = jobs;
  return ChaosExplorer(opts).RunCampaign();
}

TEST(ParallelCampaignTest, CleanCampaignIdenticalAcrossJobCounts) {
  const ExplorerReport baseline = RunCampaignWithJobs(1);
  EXPECT_EQ(baseline.episodes_run, 8u);
  EXPECT_NE(baseline.corpus_hash, 0u);
  for (int jobs : {2, 8}) {
    const ExplorerReport report = RunCampaignWithJobs(jobs);
    EXPECT_EQ(report.episodes_run, baseline.episodes_run) << "jobs=" << jobs;
    EXPECT_EQ(report.violations, baseline.violations) << "jobs=" << jobs;
    EXPECT_EQ(report.corpus_hash, baseline.corpus_hash) << "jobs=" << jobs;
    EXPECT_EQ(report.failures.size(), baseline.failures.size())
        << "jobs=" << jobs;
  }
}

TEST(ParallelCampaignTest, RepeatedRunsAtSameJobCountAreIdentical) {
  const ExplorerReport a = RunCampaignWithJobs(8);
  const ExplorerReport b = RunCampaignWithJobs(8);
  EXPECT_EQ(a.corpus_hash, b.corpus_hash);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(ParallelCampaignTest, FailingCampaignShrinksIdenticallyAcrossJobs) {
  // The planted power-guard ablation (seed 153 fails, neighbours stay clean)
  // exercises the failure-collection and shrink fan-out: the minimal
  // schedule, its outcome hash, and the replay count must not depend on the
  // worker count that found the failure.
  const auto run = [](int jobs) {
    ExplorerOptions opts;
    opts.base_seed = 152;
    opts.episodes = 3;
    opts.jobs = jobs;
    opts.gen.power_guard = false;
    return ChaosExplorer(opts).RunCampaign();
  };
  const ExplorerReport seq = run(1);
  ASSERT_EQ(seq.failures.size(), 1u);
  EXPECT_EQ(seq.failures[0].original.seed, 153u);

  const ExplorerReport par = run(4);
  ASSERT_EQ(par.failures.size(), 1u);
  EXPECT_EQ(par.corpus_hash, seq.corpus_hash);
  EXPECT_EQ(rlchaos::Serialize(par.failures[0].shrunk.minimal),
            rlchaos::Serialize(seq.failures[0].shrunk.minimal));
  EXPECT_EQ(par.failures[0].shrunk.outcome.Hash(),
            seq.failures[0].shrunk.outcome.Hash());
  EXPECT_EQ(par.failures[0].shrunk.replays_used,
            seq.failures[0].shrunk.replays_used);
}

TEST(ParallelSweepTest, TpccCellsIdenticalAcrossJobCounts) {
  // A miniature E2-style sweep (short windows keep it test-sized). Every
  // reported field — throughput, latency percentiles, abort counts — must
  // be bit-identical across job counts and match the serial runner.
  std::vector<rlbench::TpccRunConfig> cells;
  for (int clients : {2, 4}) {
    for (rlharness::DeploymentMode mode :
         {rlharness::DeploymentMode::kNative,
          rlharness::DeploymentMode::kRapiLog}) {
      rlbench::TpccRunConfig cfg;
      cfg.testbed = rlbench::DefaultTestbed(
          mode, rlharness::DiskSetup::kSharedHdd, rldb::PostgresLikeProfile());
      cfg.tpcc = rlbench::DefaultTpcc();
      cfg.clients = clients;
      cfg.warmup = rlsim::Duration::Millis(100);
      cfg.measure = rlsim::Duration::Millis(400);
      cells.push_back(cfg);
    }
  }
  const std::vector<rlbench::RunResult> seq = rlbench::RunTpccMany(cells, 1);
  const std::vector<rlbench::RunResult> par = rlbench::RunTpccMany(cells, 4);
  ASSERT_EQ(seq.size(), cells.size());
  ASSERT_EQ(par.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(par[i].txns_per_sec, seq[i].txns_per_sec) << "cell " << i;
    EXPECT_EQ(par[i].new_orders_per_sec, seq[i].new_orders_per_sec)
        << "cell " << i;
    EXPECT_EQ(par[i].committed, seq[i].committed) << "cell " << i;
    EXPECT_EQ(par[i].lock_aborts, seq[i].lock_aborts) << "cell " << i;
    EXPECT_EQ(par[i].p50, seq[i].p50) << "cell " << i;
    EXPECT_EQ(par[i].p95, seq[i].p95) << "cell " << i;
    EXPECT_EQ(par[i].p99, seq[i].p99) << "cell " << i;
    EXPECT_EQ(par[i].mean, seq[i].mean) << "cell " << i;
    // And the parallel path is the serial path: cell i equals RunTpcc alone.
    const rlbench::RunResult direct = rlbench::RunTpcc(cells[i]);
    EXPECT_EQ(par[i].committed, direct.committed) << "cell " << i;
    EXPECT_EQ(par[i].txns_per_sec, direct.txns_per_sec) << "cell " << i;
  }
}

}  // namespace
