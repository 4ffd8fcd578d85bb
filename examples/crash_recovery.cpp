// Crash-recovery walkthrough: the paper's plug-pull experiment, narrated.
//
// Runs OLTP load under RapiLog, kills the guest OS once and cuts mains power
// once, recovering and machine-verifying durability after each fault.
//
//   ./crash_recovery
#include <cstdio>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/workload/tpcc_lite.h"

using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlharness::Testbed;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

int main() {
  Simulator sim(77);
  rlharness::TestbedOptions opts;
  opts.mode = DeploymentMode::kRapiLog;
  opts.disks = DiskSetup::kSharedHdd;
  Testbed bed(sim, opts);

  rlwork::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 8;
  cfg.customers_per_district = 40;
  cfg.items = 500;
  rlwork::TpccLite tpcc(sim, cfg);
  rlfault::DurabilityChecker checker;
  rlwork::ClientDriver clients(sim, &checker);
  bool all_ok = true;

  sim.Spawn([](Simulator& s, Testbed& b, rlwork::TpccLite& w,
               rlfault::DurabilityChecker& chk, rlwork::ClientDriver& d,
               bool& ok) -> Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    std::printf("[%8.3fs] database loaded, starting 6 clients\n",
                s.now().ToSecondsF());

    // --- Fault 1: guest OS crash ---------------------------------------
    d.Spawn(6, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(400));
    std::printf("[%8.3fs] committed so far: %lld — crashing the guest OS "
                "(RapiLog buffer: %llu bytes)\n",
                s.now().ToSecondsF(),
                static_cast<long long>(d.stats().committed.value()),
                static_cast<unsigned long long>(b.rapilog()->buffered_bytes()));
    b.CrashGuest();
    d.Stop();
    co_await b.RecoverAfterGuestCrash();
    auto verdict = co_await chk.VerifyAfterRecovery(b.db());
    std::printf("[%8.3fs] guest rebooted & recovered: %s\n",
                s.now().ToSecondsF(), verdict.Summary().c_str());
    ok = ok && verdict.ok();

    // --- Fault 2: mains power cut ---------------------------------------
    d.Spawn(6, w.Clients(b.db()), 100);
    co_await s.Sleep(Duration::Millis(400));
    std::printf("[%8.3fs] pulling the plug (hold-up window: %s)\n",
                s.now().ToSecondsF(),
                rlsim::ToString(b.psu().GuaranteedWindowAfterWarning())
                    .c_str());
    b.CutPower();
    d.Stop();
    co_await s.Sleep(Duration::Seconds(1));
    co_await b.RestorePowerAndRecover();
    verdict = co_await chk.VerifyAfterRecovery(b.db());
    std::printf("[%8.3fs] power restored & recovered: %s\n",
                s.now().ToSecondsF(), verdict.Summary().c_str());
    std::printf("[%8.3fs] RapiLog lost data across both faults: %s\n",
                s.now().ToSecondsF(),
                b.rapilog()->lost_data() ? "YES (bug!)" : "no");
    ok = ok && verdict.ok() && !b.rapilog()->lost_data();
  }(sim, bed, tpcc, checker, clients, all_ok));

  sim.Run();
  std::printf("\n%s\n", all_ok ? "ALL DURABILITY CHECKS PASSED"
                               : "DURABILITY VIOLATION DETECTED");
  return all_ok ? 0 : 1;
}
