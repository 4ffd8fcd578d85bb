// E10 — Guest OS crash durability campaign.
//
// The other half of RapiLog's guarantee: the trusted layer sits below the
// guest, so an OS or DBMS crash cannot touch buffered log data — RapiLog
// keeps draining and every acknowledged commit survives the reboot.
#include <climits>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/faults/durability_checker.h"
#include "src/workload/tpcc_lite.h"

namespace {

using rlbench::Fmt;
using rlbench::PrintHeader;
using rlbench::Table;
using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 99;
  uint64_t trials = 20;
  rlbench::ParseFlags(argc, argv, "bench_e10_oscrash",
                      {rlbench::Uint("--seed", &seed),
                       rlbench::Uint("--trials", &trials, INT_MAX)});
  Simulator sim(seed);
  rlharness::TestbedOptions opts = rlbench::DefaultTestbed(
      DeploymentMode::kRapiLog, DiskSetup::kSharedHdd,
      rldb::PostgresLikeProfile());
  rlharness::Testbed bed(sim, opts);
  rlwork::TpccLite tpcc(sim, rlbench::DefaultTpcc());
  rlfault::DurabilityChecker checker;
  rlwork::ClientDriver clients(sim, &checker);

  int bad_trials = 0;
  uint64_t total_checked = 0;
  uint64_t total_lost = 0;
  uint64_t drained_after_crash = 0;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::TpccLite& w,
               rlfault::DurabilityChecker& chk, rlwork::ClientDriver& d,
               int n_trials, int& bad,
               uint64_t& checked, uint64_t& lost,
               uint64_t& drained) -> Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    rlsim::Rng rng(s.rng().Fork());
    for (int trial = 0; trial < n_trials; ++trial) {
      d.Spawn(6, w.Clients(b.db()), trial * 100);
      co_await s.Sleep(Duration::Millis(rng.UniformInt(30, 400)));
      const int64_t drained_before = b.rapilog()->stats().drained_bytes.value();
      b.CrashGuest();
      d.Stop();
      co_await b.RecoverAfterGuestCrash();
      drained +=
          static_cast<uint64_t>(b.rapilog()->stats().drained_bytes.value() -
                                drained_before);
      const auto verdict = co_await chk.VerifyAfterRecovery(b.db());
      checked += verdict.keys_checked;
      lost += verdict.lost_writes + verdict.atomicity_violations;
      if (!verdict.ok()) {
        ++bad;
      }
    }
  }(sim, bed, tpcc, checker, clients, static_cast<int>(trials), bad_trials,
    total_checked, total_lost, drained_after_crash));
  sim.Run();

  PrintHeader("E10: guest-OS crash campaign under RapiLog");
  Table table;
  table.Row({"trials", "checked", "lost", "bad-trials", "drained-post-crash"});
  table.Row({Fmt(trials, "%.0f"), Fmt(total_checked, "%.0f"),
             Fmt(total_lost, "%.0f"), Fmt(bad_trials, "%.0f"),
             Fmt(static_cast<double>(drained_after_crash) / 1024.0,
                 "%.0f KiB")});
  table.Print();
  std::printf(
      "\nExpected shape: zero lost transactions in every trial; the "
      "post-crash drain count\nshows buffered data reaching the disk after "
      "the guest died.\n");
  return bad_trials == 0 ? 0 : 1;
}
