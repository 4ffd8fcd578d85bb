// E9 — The power budget: PSU hold-up window vs RapiLog buffer size, and how
// much buffer the workload actually needs.
//
// Part 1 sweeps the electrical parameters and prints the admission budget
// RapiLog derives (linear in the post-warning window).
// Part 2 sweeps an explicit buffer cap and measures throughput: once the
// buffer covers the workload's burstiness, more buffer buys nothing — i.e.
// the modest budget a commodity PSU provides is already enough.
#include <cstdio>

#include "bench/bench_common.h"

namespace {

using rlbench::Fmt;
using rlbench::FmtDur;
using rlbench::PrintHeader;
using rlbench::Table;
using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlsim::Duration;

}  // namespace

int main(int argc, char** argv) {
  rlbench::ParseFlags(argc, argv, "bench_e9_holdup", {});
  PrintHeader("E9a: admission budget vs electrical configuration");
  Table table;
  table.Row({"config", "window", "budget"});
  struct ElectricalArm {
    const char* name;
    double load_watts;
    Duration ups;
  };
  const ElectricalArm arms[] = {
      {"full-load PSU", 400, Duration::Zero()},
      {"half-load PSU", 200, Duration::Zero()},
      {"quarter-load PSU", 100, Duration::Zero()},
      {"small UPS (30 s)", 200, Duration::Seconds(30)},
  };
  for (const auto& arm : arms) {
    rlsim::Simulator sim;
    rlpow::PsuParams psu;
    psu.system_load_watts = arm.load_watts;
    psu.ups_runtime = arm.ups;
    rlpow::PowerSupply supply(sim, psu);
    rlstor::SimBlockDevice disk(
        sim, rlstor::SimBlockDevice::Options{.geometry = {.sector_count =
                                                              1 << 20}},
        rlstor::MakeDefaultHdd());
    rapilog::RapiLogDevice dev(sim, supply, disk, rapilog::RapiLogOptions{});
    table.Row({arm.name, FmtDur(supply.GuaranteedWindowAfterWarning()),
               Fmt(static_cast<double>(dev.max_buffer_bytes()) / 1024.0,
                   "%.0f KiB")});
  }
  table.Print();

  PrintHeader("E9b: TPC-C throughput vs RapiLog buffer cap (shared HDD, "
              "16 clients)");
  table.Row({"buffer-cap", "txns/s"});
  for (const uint64_t cap_kib : {16, 64, 256, 1024, 4096}) {
    rlbench::TpccRunConfig cfg;
    cfg.testbed = rlbench::DefaultTestbed(DeploymentMode::kRapiLog,
                                          DiskSetup::kSharedHdd,
                                          rldb::PostgresLikeProfile());
    cfg.testbed.rapilog.max_buffer_bytes_override = cap_kib * 1024;
    cfg.tpcc = rlbench::DefaultTpcc();
    cfg.clients = 16;
    const rlbench::RunResult result = rlbench::RunTpcc(cfg);
    table.Row({Fmt(static_cast<double>(cap_kib), "%.0f KiB"),
               Fmt(result.txns_per_sec, "%.0f")});
  }
  table.Print();
  std::printf(
      "\nExpected shape: budget scales linearly with the window; throughput "
      "saturates at a\nmodest buffer size — well inside what a commodity PSU "
      "hold-up can guarantee.\n");
  return 0;
}
