// E8 — Power-failure durability campaign (the plug-pull experiment).
//
// Repeated randomised mains cuts under load, with recovery and verification
// after each: RapiLog and native synchronous logging must never lose an
// acknowledged transaction; asynchronous commit loses them by design; and
// the ablation arms (RapiLog with its PowerGuard disabled, or with an
// overstated energy budget) show the guard is what makes the buffered scheme
// safe. Exits 1 when a guarded arm loses an acknowledged commit or breaks
// atomicity, or when an ablation loses nothing (its planted failure went
// missing, so the campaign no longer shows what the guard buys).
#include <algorithm>
#include <cstdio>

#include "bench/bench_common.h"
#include "src/faults/durability_checker.h"
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

struct CampaignResult {
  int trials = 0;
  int trials_with_loss = 0;
  uint64_t lost_writes = 0;
  uint64_t atomicity_violations = 0;
  uint64_t keys_checked = 0;
};

CampaignResult RunCampaign(DeploymentMode mode, bool power_guard,
                           bool overstated_budget, int trials,
                           uint64_t seed) {
  Simulator sim(seed);
  rlharness::TestbedOptions opts = rlbench::DefaultTestbed(
      mode, DiskSetup::kSharedHdd, rldb::PostgresLikeProfile());
  opts.rapilog.enable_power_guard = power_guard;
  if (!power_guard || overstated_budget) {
    // The ablations run the machine at full PSU load — the ATX-spec 16 ms
    // hold-up — which is the regime where only honest energy math survives.
    // (At light load the window is so generous that even an unguarded drain
    // usually wins; the guard turns "usually" into "always".)
    opts.psu.system_load_watts = 390;
  }
  if (!power_guard) {
    // Without the guard the budget is meaningless; give the buffer room so
    // the failure mode is visible.
    opts.rapilog.max_buffer_bytes_override = 8ull * 1024 * 1024;
  }
  if (overstated_budget) {
    // Dishonest energy math: claims a 10x faster drain and no start-up
    // latency, so the admission control buffers more than the hold-up
    // window can flush.
    opts.rapilog.worst_case_drain_mbps = 400.0;
    opts.rapilog.drain_start_reserve = Duration::Zero();
  }
  rlharness::Testbed bed(sim, opts);
  rlwork::KvConfig kv_cfg;
  // Working set much larger than the buffer pool: data-page reads contend
  // with the log drain on the shared spindle, so the RapiLog buffer carries
  // a real backlog when the plug is pulled (the regime where the guard
  // matters).
  kv_cfg.key_space = 200'000;
  kv_cfg.zipf_theta = 0.6;
  kv_cfg.write_fraction = 0.5;
  kv_cfg.think_time = Duration::Micros(50);
  rlwork::KvWorkload kv(sim, kv_cfg);
  rlfault::DurabilityChecker checker;
  rlwork::ClientDriver clients(sim, &checker);
  CampaignResult campaign;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlfault::DurabilityChecker& chk, rlwork::ClientDriver& d,
               CampaignResult& out, int n_trials) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 50'000);
    rlsim::Rng rng(s.rng().Fork());
    for (int trial = 0; trial < n_trials; ++trial) {
      d.Spawn(8, w.Clients(b.db()), trial * 100);
      // Run for a random stretch, then pull the plug. The cut is
      // adversarial: when a RapiLog buffer exists we wait for it to carry a
      // real backlog (checkpoint-contention spikes), so the ablations face
      // the worst case — which the guard must survive by construction.
      co_await s.Sleep(Duration::Millis(rng.UniformInt(30, 400)));
      if (b.rapilog() != nullptr) {
        // A backlog worth cutting at: half the arm's admission budget,
        // capped at 1 MiB (the ablation arms run with inflated budgets).
        const uint64_t target = std::min<uint64_t>(
            b.rapilog()->max_buffer_bytes() / 2, 1024 * 1024);
        const rlsim::TimePoint give_up = s.now() + Duration::Seconds(2);
        while (b.rapilog()->buffered_bytes() < target && s.now() < give_up) {
          co_await s.Sleep(Duration::Millis(5));
        }
      }
      b.CutPower();
      d.Stop();
      co_await s.Sleep(Duration::Seconds(1));  // rails drop inside this
      co_await b.RestorePowerAndRecover();
      const auto verdict = co_await chk.VerifyAfterRecovery(b.db());
      ++out.trials;
      out.keys_checked += verdict.keys_checked;
      out.lost_writes += verdict.lost_writes;
      out.atomicity_violations += verdict.atomicity_violations;
      if (!verdict.ok()) {
        ++out.trials_with_loss;
      }
    }
  }(sim, bed, kv, checker, clients, campaign, trials));
  sim.Run();
  return campaign;
}

void Report(Table& table, const char* name, const CampaignResult& r) {
  table.Row({name, Fmt(r.trials, "%.0f"), Fmt(r.keys_checked, "%.0f"),
             Fmt(r.lost_writes, "%.0f"), Fmt(r.atomicity_violations, "%.0f"),
             Fmt(r.trials_with_loss, "%.0f")});
}

// Whether the arm showed what it must: loss in some trial when `must_lose`,
// none at all otherwise. Names a failing arm on stderr.
bool Holds(const char* name, const CampaignResult& r, bool must_lose) {
  if ((r.trials_with_loss > 0) == must_lose) {
    return true;
  }
  std::fprintf(stderr, "E8: %s %s\n", name,
               must_lose ? "lost nothing: the planted failure went missing"
                         : "lost an acknowledged commit or broke atomicity");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  rlbench::ParseFlags(argc, argv, "bench_e8_powerfail",
                      {rlbench::Switch("--quick", &quick)});
  const int trials = quick ? 5 : 20;
  PrintHeader("E8: power-cut durability campaign (randomised cut instants)");
  Table table;
  table.Row({"config", "trials", "checked", "lost", "atomicity", "bad-trials"});
  const CampaignResult rapilog =
      RunCampaign(DeploymentMode::kRapiLog, true, false, trials, 11);
  const CampaignResult native =
      RunCampaign(DeploymentMode::kNative, true, false, trials, 12);
  const CampaignResult async =
      RunCampaign(DeploymentMode::kUnsafeAsync, true, false, trials, 13);
  const CampaignResult noguard =
      RunCampaign(DeploymentMode::kRapiLog, false, false, trials, 14);
  const CampaignResult overbudget =
      RunCampaign(DeploymentMode::kRapiLog, true, true, trials, 15);
  Report(table, "rapilog", rapilog);
  Report(table, "native-sync", native);
  Report(table, "unsafe-async", async);
  Report(table, "rapilog-noguard", noguard);
  Report(table, "rapilog-overbudget", overbudget);
  table.Print();
  std::printf(
      "\nExpected shape: zero loss for rapilog and native-sync in every "
      "trial; unsafe-async\nloses acknowledged commits; the ablations "
      "(guard disabled / dishonest energy\nbudget) re-introduce loss.\n");
  // The paper's headline claim gates the exit code; unsafe-async loses by
  // design and gates nothing.
  const bool ok = Holds("rapilog", rapilog, false) &
                  Holds("native-sync", native, false) &
                  Holds("rapilog-noguard", noguard, true) &
                  Holds("rapilog-overbudget", overbudget, true);
  return ok ? 0 : 1;
}
