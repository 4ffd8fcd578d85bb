// Shared driver for E2/E3/E4: TPC-C throughput vs client count for one
// engine profile, across deployment modes, on a shared rotating disk.
//
// The sweep is a matrix of independent seeded runs, so the cells fan out
// across `jobs` worker threads (bench_common::RunTpccMany); results come
// back in cell order and the printed table is byte-identical at any job
// count.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace rlbench {

inline void RunTpccClientSweep(const char* experiment,
                               const rldb::EngineProfile& profile,
                               int jobs) {
  const std::vector<int> client_counts = {1, 2, 4, 8, 16, 32};
  const struct {
    const char* name;
    rlharness::DeploymentMode mode;
  } arms[] = {
      {"native", rlharness::DeploymentMode::kNative},
      {"virt", rlharness::DeploymentMode::kVirt},
      {"rapilog", rlharness::DeploymentMode::kRapiLog},
      {"unsafe", rlharness::DeploymentMode::kUnsafeAsync},
  };

  // Build the full (clients x arm) cell list up front, row-major, so the
  // fan-out covers the whole matrix and the reduction below just walks it
  // in order.
  std::vector<TpccRunConfig> cells;
  for (int clients : client_counts) {
    for (const auto& arm : arms) {
      TpccRunConfig cfg;
      cfg.testbed = DefaultTestbed(arm.mode,
                                   rlharness::DiskSetup::kSharedHdd, profile);
      cfg.tpcc = DefaultTpcc();
      cfg.clients = clients;
      cells.push_back(cfg);
    }
  }
  const std::vector<RunResult> results = RunTpccMany(cells, jobs);

  PrintHeader(std::string(experiment) + ": TPC-C-lite throughput (txns/s) " +
              "vs clients, profile=" + profile.name + ", shared HDD");
  Table table;
  table.Row({"clients", "native", "virt", "rapilog", "unsafe", "rapi/virt",
             "aborts virt/rapi"});
  for (size_t row = 0; row < client_counts.size(); ++row) {
    const RunResult* r = &results[row * 4];
    table.Row({Fmt(client_counts[row], "%.0f"), Fmt(r[0].txns_per_sec, "%.0f"),
               Fmt(r[1].txns_per_sec, "%.0f"), Fmt(r[2].txns_per_sec, "%.0f"),
               Fmt(r[3].txns_per_sec, "%.0f"),
               Fmt(r[1].txns_per_sec > 0
                       ? r[2].txns_per_sec / r[1].txns_per_sec
                       : 0,
                   "%.2fx"),
               std::to_string(r[1].lock_aborts) + "/" +
                   std::to_string(r[2].lock_aborts)});
  }
  table.Print();
  std::printf(
      "\nExpected shape: rapilog >= virt everywhere, approaching the unsafe "
      "upper bound;\nnative vs virt gap is the virtualisation overhead.\n");
}

}  // namespace rlbench
