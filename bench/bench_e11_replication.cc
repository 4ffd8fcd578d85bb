// E11 — Replicated durability: commit latency and replication lag vs link
// latency, for both shipping modes.
//
// A write-heavy KV workload commits against a primary whose log path is
// wrapped by a LogShipper streaming to 3 replicas. The sweep raises the
// one-way link latency and reports:
//   * async       commit latency must stay at the local-disk baseline (the
//                 primary never blocks on the network) while the replication
//                 lag — the durability exposure on total primary loss —
//                 grows with the link;
//   * quorum-ack  commit latency tracks the majority link RTT, and the lag
//                 stays pinned near zero.
//
// Deterministic: the whole run derives from one seed; identical seeds print
// identical tables.
#include <cstdio>
#include <string>

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

enum class Arm { kOff, kAsync, kQuorum };

std::string ToString(Arm arm) {
  switch (arm) {
    case Arm::kOff:
      return "off";
    case Arm::kAsync:
      return "async";
    case Arm::kQuorum:
      return "quorum-ack";
  }
  return "?";
}

struct E11Result {
  double txns_per_sec = 0;
  Duration commit_p50;
  Duration commit_p95;
  int64_t blocks_shipped = 0;
  int64_t retransmits = 0;
  int64_t lag_p50 = 0;   // blocks shipped but not yet quorum-durable
  int64_t lag_max = 0;
  Duration quorum_ack_p50;
  std::string full_stats;  // registry dump, for the appendix print
};

E11Result RunArm(Arm arm, Duration link_latency, uint64_t seed) {
  Simulator sim(seed);
  rlharness::TestbedOptions opts = rlbench::DefaultTestbed(
      DeploymentMode::kNative, DiskSetup::kSsdLog, rldb::PostgresLikeProfile());
  if (arm != Arm::kOff) {
    opts.replication.enabled = true;
    opts.replication.replicas = 3;
    opts.replication.link.base_latency = link_latency;
    opts.replication.link.jitter = link_latency / 10;
    opts.replication.ship_mode = arm == Arm::kQuorum
                                     ? rlrep::ShipMode::kQuorumAck
                                     : rlrep::ShipMode::kAsync;
  }
  rlharness::Testbed bed(sim, opts);

  rlwork::KvConfig kv_cfg;
  kv_cfg.key_space = 20'000;
  kv_cfg.write_fraction = 0.8;
  kv_cfg.ops_per_txn = 3;
  kv_cfg.think_time = Duration::Micros(200);
  rlwork::KvWorkload kv(sim, kv_cfg);
  rlwork::ClientDriver clients(sim);
  E11Result result;

  sim.Spawn([](Simulator& s, rlharness::Testbed& b, rlwork::KvWorkload& w,
               rlwork::ClientDriver& d, E11Result& out) -> Task<void> {
    co_await b.Start();
    co_await w.Load(b.db(), 5'000);
    d.Spawn(8, w.Clients(b.db()));
    co_await s.Sleep(Duration::Millis(300));  // warmup
    d.ResetStats();
    const rlsim::TimePoint t0 = s.now();
    co_await s.Sleep(Duration::Seconds(2));
    const double seconds = (s.now() - t0).ToSecondsF();
    d.Stop();

    out.txns_per_sec =
        static_cast<double>(d.stats().committed.value()) / seconds;
    out.commit_p50 = d.stats().txn_latency.PercentileDuration(50);
    out.commit_p95 = d.stats().txn_latency.PercentileDuration(95);
    if (b.shipper() != nullptr) {
      const auto& ship = b.shipper()->stats();
      out.blocks_shipped = ship.blocks_shipped.value();
      out.retransmits = ship.retransmits.value();
      out.lag_p50 = ship.lag_blocks.Percentile(50);
      out.lag_max = ship.lag_blocks.empty() ? 0 : ship.lag_blocks.max();
      out.quorum_ack_p50 = ship.quorum_ack_latency.PercentileDuration(50);
      rlsim::StatsRegistry registry;
      b.RegisterReplicationStats(registry);
      out.full_stats = registry.Format();
    }
  }(sim, bed, kv, clients, result));
  sim.Run();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  rlbench::ParseFlags(argc, argv, "bench_e11_replication",
                      {rlbench::Uint("--seed", &seed)});

  PrintHeader("E11: replicated durability (3 replicas, majority = 2)");
  std::printf("seed=%llu; KV 80%% writes, 8 clients, native mode, SSD log\n",
              static_cast<unsigned long long>(seed));
  Table table;
  table.Row({"mode", "link(1-way)", "txn/s", "commit p50", "commit p95",
             "lag p50", "lag max", "q-ack p50", "retrans"});

  std::string appendix;
  for (const Duration link :
       {Duration::Micros(50), Duration::Micros(200), Duration::Millis(1),
        Duration::Millis(5)}) {
    for (const Arm arm : {Arm::kOff, Arm::kAsync, Arm::kQuorum}) {
      if (arm == Arm::kOff && link != Duration::Micros(50)) {
        continue;  // the no-replication baseline has no link to sweep
      }
      const E11Result r = RunArm(arm, link, seed);
      table.Row({ToString(arm), arm == Arm::kOff ? "-" : FmtDur(link),
                 Fmt(r.txns_per_sec, "%.0f"), FmtDur(r.commit_p50),
                 FmtDur(r.commit_p95),
                 arm == Arm::kOff ? "-" : Fmt(static_cast<double>(r.lag_p50),
                                              "%.0f"),
                 arm == Arm::kOff ? "-" : Fmt(static_cast<double>(r.lag_max),
                                              "%.0f"),
                 arm == Arm::kQuorum ? FmtDur(r.quorum_ack_p50) : "-",
                 arm == Arm::kOff ? "-"
                                  : Fmt(static_cast<double>(r.retransmits),
                                        "%.0f")});
      if (arm == Arm::kQuorum && link == Duration::Millis(1)) {
        appendix = r.full_stats;
      }
    }
  }
  table.Print();

  PrintHeader("E11 appendix: full stats registry (quorum-ack, 1 ms link)");
  std::printf("%s", appendix.c_str());
  return 0;
}
