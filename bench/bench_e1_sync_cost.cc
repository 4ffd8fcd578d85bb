// E1 — Motivation: the cost of synchronous logging.
//
// Tiny update transactions (one write + commit, no think time) on a single
// shared rotating disk, native deployment, across durability schemes. The
// paper's motivating observation is the gulf between synchronous commits
// (bounded by the disk's rotation) and anything that decouples the ack from
// the platter; RapiLog reaches async-like rates while keeping the guarantee.
#include <cstdio>
#include <limits>

#include "bench/bench_common.h"
#include "src/workload/kv_workload.h"

namespace {

using rlbench::Fmt;
using rlbench::FmtDur;
using rlbench::PrintHeader;
using rlbench::Table;
using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

struct Arm {
  const char* name;
  DeploymentMode mode;
  rldb::EngineProfile profile;
};

void RunArm(const Arm& arm, Table& table) {
  Simulator sim(7);
  rlharness::TestbedOptions opts = rlbench::DefaultTestbed(
      arm.mode, DiskSetup::kSharedHdd, arm.profile);
  // The rows time the commit path alone. A memory-speed arm logs up to
  // ~130 MiB in its 3.5 s, four laps of the default ring, and each lap
  // would cost a checkpoint on the shared disk; the whole log area holds
  // the run, so no checkpoint runs, as when the rows were first taken.
  opts.db.profile.log_ring_bytes = std::numeric_limits<uint64_t>::max();
  rlharness::Testbed bed(sim, opts);
  rlwork::LogStress stress;
  rlwork::ClientDriver clients(sim);
  double commits_per_sec = 0;
  Duration p50;
  Duration p99;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::LogStress& w,
               rlwork::ClientDriver& d, double& rate, Duration& out50,
               Duration& out99) -> Task<void> {
    co_await b.Start();
    d.Spawn(4, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(500));
    d.ResetStats();
    const rlsim::TimePoint t0 = s.now();
    co_await s.Sleep(Duration::Seconds(3));
    rate = static_cast<double>(d.stats().committed.value()) /
           (s.now() - t0).ToSecondsF();
    out50 = d.stats().txn_latency.PercentileDuration(50);
    out99 = d.stats().txn_latency.PercentileDuration(99);
    d.Stop();
  }(sim, bed, stress, clients, commits_per_sec, p50, p99));
  sim.Run();

  table.Row({arm.name, Fmt(commits_per_sec, "%.0f"), FmtDur(p50), FmtDur(p99)});
}

}  // namespace

int main(int argc, char** argv) {
  rlbench::ParseFlags(argc, argv, "bench_e1_sync_cost", {});
  PrintHeader(
      "E1: commit rate under different durability schemes "
      "(4 clients, tiny txns, single shared 7200rpm disk)");
  Table table;
  table.Row({"scheme", "commits/s", "p50", "p99"});

  rldb::EngineProfile sync_pg = rldb::PostgresLikeProfile();
  rldb::EngineProfile group = rldb::PostgresLikeProfile();
  group.group_commit_window = rlsim::Duration::Millis(2);

  RunArm({"sync", DeploymentMode::kNative, sync_pg}, table);
  RunArm({"group-commit", DeploymentMode::kNative, group}, table);
  RunArm({"async-unsafe", DeploymentMode::kUnsafeAsync, sync_pg}, table);
  RunArm({"rapilog", DeploymentMode::kRapiLog, sync_pg}, table);
  table.Print();

  std::printf(
      "\nExpected shape: sync is bounded by disk rotation; group commit "
      "amortises it;\nasync and RapiLog commit at memory speed — but only "
      "RapiLog keeps durability.\n");
  return 0;
}
