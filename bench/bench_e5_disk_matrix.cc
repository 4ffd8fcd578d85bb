// E5 — Disk-configuration matrix: where does RapiLog win, and by how much?
//
// The paper's claim has two halves: (a) on plain rotating disks RapiLog
// improves throughput substantially, and (b) on hardware that already hides
// write latency (battery-backed write cache, SSD) it never hurts beyond the
// virtualisation overhead. The matrix reproduces both.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace {

using rlbench::Fmt;
using rlbench::PrintHeader;
using rlbench::Table;
using rlharness::DeploymentMode;
using rlharness::DiskSetup;

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  rlbench::ParseFlags(argc, argv, "bench_e5_disk_matrix",
                      {rlbench::Jobs("--jobs", &jobs)});
  const struct {
    const char* name;
    DiskSetup setup;
  } disks[] = {
      {"shared-hdd", DiskSetup::kSharedHdd},
      {"separate-hdd", DiskSetup::kSeparateHdd},
      {"bbwc", DiskSetup::kBbwc},
      {"ssd-log", DiskSetup::kSsdLog},
  };
  const struct {
    const char* name;
    DeploymentMode mode;
  } arms[] = {
      {"native", DeploymentMode::kNative},
      {"virt", DeploymentMode::kVirt},
      {"rapilog", DeploymentMode::kRapiLog},
  };

  std::vector<rlbench::TpccRunConfig> cells;
  for (const auto& disk : disks) {
    for (const auto& arm : arms) {
      rlbench::TpccRunConfig cfg;
      cfg.testbed = rlbench::DefaultTestbed(arm.mode, disk.setup,
                                            rldb::PostgresLikeProfile());
      cfg.tpcc = rlbench::DefaultTpcc();
      cfg.clients = 16;
      cells.push_back(cfg);
    }
  }
  const std::vector<rlbench::RunResult> results =
      rlbench::RunTpccMany(cells, jobs);

  PrintHeader(
      "E5: TPC-C-lite throughput (txns/s) by storage configuration, "
      "16 clients, pg-like");
  Table table;
  table.Row({"disks", "native", "virt", "rapilog", "rapi/virt",
             "aborts virt/rapi"});
  for (size_t d = 0; d < std::size(disks); ++d) {
    const rlbench::RunResult* r = &results[d * std::size(arms)];
    table.Row({disks[d].name, Fmt(r[0].txns_per_sec, "%.0f"),
               Fmt(r[1].txns_per_sec, "%.0f"), Fmt(r[2].txns_per_sec, "%.0f"),
               Fmt(r[1].txns_per_sec > 0
                       ? r[2].txns_per_sec / r[1].txns_per_sec
                       : 0,
                   "%.2fx"),
               std::to_string(r[1].lock_aborts) + "/" +
                   std::to_string(r[2].lock_aborts)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: biggest rapilog win on the shared rotating disk; "
      "the win shrinks\nwith a dedicated log disk and mostly vanishes with "
      "BBWC/SSD — but never inverts\nbeyond noise (RapiLog does not "
      "degrade performance).\n");
  return 0;
}
