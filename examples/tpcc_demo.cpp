// TPC-C demo: the paper's headline comparison as a runnable example.
//
// Runs the same OLTP workload in three deployments on one shared rotating
// disk and prints throughput and latency side by side:
//   native   — DBMS on bare metal, synchronous durable commits
//   virt     — DBMS in a VM, paravirtual disks, synchronous commits
//   rapilog  — DBMS in a VM with the log disk backed by RapiLog
//
//   ./tpcc_demo [clients]     (default 16)
#include <cstdio>
#include <cstdlib>

#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/tpcc_lite.h"

using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlharness::Testbed;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

namespace {

struct Result {
  double txns_per_sec = 0;
  Duration p50;
  Duration p99;
};

Result RunOne(DeploymentMode mode, int clients) {
  Simulator sim(1234);
  rlharness::TestbedOptions opts;
  opts.mode = mode;
  opts.disks = DiskSetup::kSharedHdd;
  opts.db.pool_pages = 2048;
  opts.db.journal_pages = 1200;
  opts.db.profile.checkpoint_dirty_pages = 512;
  Testbed bed(sim, opts);

  rlwork::TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 8;
  cfg.customers_per_district = 50;
  cfg.items = 1000;
  rlwork::TpccLite tpcc(sim, cfg);
  rlwork::ClientDriver driver(sim);

  Result result;
  sim.Spawn([](Simulator& s, Testbed& b, rlwork::TpccLite& w,
               rlwork::ClientDriver& d, int n_clients,
               Result& out) -> Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    d.Spawn(n_clients, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(500));  // warmup
    d.ResetStats();
    const rlsim::TimePoint t0 = s.now();
    co_await s.Sleep(Duration::Seconds(3));
    out.txns_per_sec = static_cast<double>(d.stats().committed.value()) /
                       (s.now() - t0).ToSecondsF();
    out.p50 = d.stats().txn_latency.PercentileDuration(50);
    out.p99 = d.stats().txn_latency.PercentileDuration(99);
    d.Stop();
  }(sim, bed, tpcc, driver, clients, result));
  sim.Run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 16;
  std::printf("TPC-C-lite, %d clients, pg-like engine, one shared 7200rpm "
              "disk (3 s simulated, steady state)\n\n",
              clients);
  std::printf("%-10s %12s %12s %12s\n", "mode", "txns/s", "p50", "p99");

  const Result native = RunOne(DeploymentMode::kNative, clients);
  std::printf("%-10s %12.0f %12s %12s\n", "native", native.txns_per_sec,
              rlsim::ToString(native.p50).c_str(),
              rlsim::ToString(native.p99).c_str());
  const Result virt = RunOne(DeploymentMode::kVirt, clients);
  std::printf("%-10s %12.0f %12s %12s\n", "virt", virt.txns_per_sec,
              rlsim::ToString(virt.p50).c_str(),
              rlsim::ToString(virt.p99).c_str());
  const Result rapi = RunOne(DeploymentMode::kRapiLog, clients);
  std::printf("%-10s %12.0f %12s %12s\n", "rapilog", rapi.txns_per_sec,
              rlsim::ToString(rapi.p50).c_str(),
              rlsim::ToString(rapi.p99).c_str());

  std::printf("\nrapilog/virt speedup: %.2fx (durability guarantee intact)\n",
              virt.txns_per_sec > 0 ? rapi.txns_per_sec / virt.txns_per_sec
                                    : 0.0);
  return 0;
}
