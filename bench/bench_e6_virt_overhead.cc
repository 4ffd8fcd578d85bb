// E6 — Virtualisation overhead on a CPU-bound workload.
//
// A read-only key-value workload whose working set fits in the buffer pool:
// after warmup there is no disk I/O on the critical path, so the native/virt
// gap isolates the hypervisor's CPU cost (paper: a few percent) and shows
// that RapiLog adds nothing on top of plain virtualisation.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/workload/kv_workload.h"

namespace {

using rlbench::Fmt;
using rlbench::PrintHeader;
using rlbench::Table;
using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

double RunArm(DeploymentMode mode) {
  Simulator sim(13);
  rlharness::TestbedOptions opts = rlbench::DefaultTestbed(
      mode, DiskSetup::kSsdLog, rldb::PostgresLikeProfile());
  rlharness::Testbed bed(sim, opts);
  rlwork::KvConfig kv_cfg;
  kv_cfg.key_space = 2000;  // fits comfortably in the pool
  kv_cfg.write_fraction = 0.0;
  kv_cfg.ops_per_txn = 8;
  kv_cfg.think_time = Duration::Micros(20);
  rlwork::KvWorkload kv(sim, kv_cfg);
  rlwork::ClientDriver clients(sim);
  double rate = 0;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, double& out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 2000);
    d.Spawn(8, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(500));  // warm the pool
    d.ResetStats();
    const rlsim::TimePoint t0 = s.now();
    co_await s.Sleep(Duration::Seconds(2));
    out = static_cast<double>(d.stats().committed.value()) /
          (s.now() - t0).ToSecondsF();
    d.Stop();
  }(sim, bed, kv, clients, rate));
  sim.Run();
  return rate;
}

}  // namespace

int main(int argc, char** argv) {
  rlbench::ParseFlags(argc, argv, "bench_e6_virt_overhead", {});
  PrintHeader("E6: CPU-bound read-only throughput (txns/s) — virtualisation "
              "overhead isolated");
  Table table;
  table.Row({"mode", "txns/s", "vs native"});
  const double native = RunArm(DeploymentMode::kNative);
  const double virt = RunArm(DeploymentMode::kVirt);
  const double rapi = RunArm(DeploymentMode::kRapiLog);
  table.Row({"native", Fmt(native, "%.0f"), "1.00x"});
  table.Row({"virt", Fmt(virt, "%.0f"), Fmt(virt / native, "%.2fx")});
  table.Row({"rapilog", Fmt(rapi, "%.0f"), Fmt(rapi / native, "%.2fx")});
  table.Print();
  std::printf(
      "\nExpected shape: virt within a few %% of native (the configured CPU "
      "overhead);\nrapilog == virt (it only touches the log path).\n");
  return 0;
}
