// E7 — Transaction latency distribution per deployment mode, decomposed
// stage by stage.
//
// RapiLog's effect in the time domain: synchronous logging puts a
// rotational-latency floor under every commit; RapiLog removes it, so the
// whole distribution shifts left and the tail tightens. The per-stage
// breakdown (guest WAL wait → VMM request → RapiLog buffer ack → physical
// medium write → device flush) shows *where* the floor lives in each mode —
// in native/virt it sits in the medium/flush stages; under RapiLog the
// guest-visible wait collapses onto the buffer-ack cost while the medium
// keeps draining at its own pace.
//
// Flags:
//   --jobs N           run the four arms across N worker threads (output is
//                      byte-identical at any N; each arm is its own sim);
//                      0 = all cores
//   --stats-json FILE  machine-readable results (default BENCH_e7.json;
//                      --json is accepted as an alias, matching bench_micro)
//   --trace-out FILE   re-run the rapilog arm with a span tracer, write a
//                      Perfetto-loadable Chrome trace of it, and print the
//                      critical-path breakdown of the traced spans
//   --snapshot-every MS  periodic stats snapshots embedded in the JSON
//                      (default 500 ms of virtual time; 0 disables)
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/critical_path.h"
#include "src/obs/span_tracer.h"

namespace {

using rlbench::FmtDur;
using rlbench::PrintHeader;
using rlbench::StageStats;
using rlbench::Table;
using rlharness::DeploymentMode;
using rlharness::DiskSetup;

struct Arm {
  const char* name;
  DeploymentMode mode;
};

constexpr Arm kArms[] = {
    {"native", DeploymentMode::kNative},
    {"virt", DeploymentMode::kVirt},
    {"rapilog", DeploymentMode::kRapiLog},
    {"unsafe", DeploymentMode::kUnsafeAsync},
};

rlbench::TpccRunConfig ArmConfig(DeploymentMode mode,
                                 rlsim::Duration snapshot_every) {
  rlbench::TpccRunConfig cfg;
  cfg.testbed = rlbench::DefaultTestbed(mode, DiskSetup::kSharedHdd,
                                        rldb::PostgresLikeProfile());
  cfg.tpcc = rlbench::DefaultTpcc();
  cfg.clients = 16;
  cfg.snapshot_every = snapshot_every;
  return cfg;
}

// "p50 / p95" for a populated stage, "-" for a stage the mode doesn't have.
std::string StageCell(const rlsim::Histogram& h) {
  if (h.empty()) {
    return "-";
  }
  return FmtDur(h.PercentileDuration(50)) + " / " +
         FmtDur(h.PercentileDuration(95));
}

void AddStageMetrics(rlbench::BenchJsonWriter& json, const std::string& arm,
                     const char* stage, const rlsim::Histogram& h) {
  if (h.empty()) {
    return;
  }
  const std::string base = "e7." + arm + ".stage." + stage;
  json.Add(base + ".count", static_cast<double>(h.count()), "ops");
  json.Add(base + ".p50", static_cast<double>(h.Percentile(50)), "ns");
  json.Add(base + ".p95", static_cast<double>(h.Percentile(95)), "ns");
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 1;
  std::string json_out = "BENCH_e7.json";
  std::string trace_out;
  int64_t snapshot_ms = 500;
  bool ok = true;
  for (int i = 1; ok && i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      uint64_t n = 0;
      ok = rlbench::ParseUint(argv[++i], &n);
      jobs = n == 0 ? rlharness::DefaultJobs()
                    : static_cast<int>(std::min<uint64_t>(n, INT_MAX));
    } else if ((std::strcmp(argv[i], "--stats-json") == 0 ||
                std::strcmp(argv[i], "--json") == 0) &&
               i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--snapshot-every") == 0 && i + 1 < argc) {
      snapshot_ms = std::atoll(argv[++i]);
    } else {
      ok = false;
    }
  }
  if (!ok) {
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--stats-json FILE] "
                 "[--trace-out FILE] [--snapshot-every MS]\n",
                 argv[0]);
    return 2;
  }
  const rlsim::Duration snapshot_every = rlsim::Duration::Millis(snapshot_ms);

  std::vector<rlbench::TpccRunConfig> configs;
  for (const Arm& arm : kArms) {
    configs.push_back(ArmConfig(arm.mode, snapshot_every));
  }
  const std::vector<rlbench::RunResult> results =
      rlbench::RunTpccMany(configs, jobs);

  PrintHeader("E7: TPC-C-lite transaction latency, 16 clients, shared HDD, "
              "pg-like");
  Table table;
  table.Row({"mode", "mean", "p50", "p95", "p99"});
  for (size_t i = 0; i < results.size(); ++i) {
    const rlbench::RunResult& r = results[i];
    table.Row({kArms[i].name, FmtDur(r.mean), FmtDur(r.p50), FmtDur(r.p95),
               FmtDur(r.p99)});
  }
  table.Print();

  PrintHeader("E7: per-stage commit-path latency, p50 / p95, steady state");
  Table stages;
  stages.Row({"mode", "guest(wal-wait)", "vmm(vblk-req)", "buffer(rl-ack)",
              "medium(log-write)", "ack(dev-flush)"});
  for (size_t i = 0; i < results.size(); ++i) {
    const StageStats& s = results[i].stages;
    stages.Row({kArms[i].name, StageCell(s.guest_commit_wait),
                StageCell(s.vmm_request), StageCell(s.buffer_ack),
                StageCell(s.medium_write), StageCell(s.device_flush)});
  }
  stages.Print();
  std::printf(
      "\nExpected shape: native/virt guest waits sit on the medium "
      "write+flush floor (~ms);\nrapilog's guest wait collapses onto the "
      "buffer-ack cost while the medium drains\nasynchronously; unsafe shows "
      "the no-durability lower bound.\n");

  rlbench::BenchJsonWriter json;
  for (size_t i = 0; i < results.size(); ++i) {
    const rlbench::RunResult& r = results[i];
    const std::string arm = kArms[i].name;
    json.Add("e7." + arm + ".txns_per_sec", r.txns_per_sec, "txn/s");
    json.Add("e7." + arm + ".mean", static_cast<double>(r.mean.nanos()), "ns");
    json.Add("e7." + arm + ".p50", static_cast<double>(r.p50.nanos()), "ns");
    json.Add("e7." + arm + ".p95", static_cast<double>(r.p95.nanos()), "ns");
    json.Add("e7." + arm + ".p99", static_cast<double>(r.p99.nanos()), "ns");
    AddStageMetrics(json, arm, "guest_commit_wait", r.stages.guest_commit_wait);
    AddStageMetrics(json, arm, "vmm_request", r.stages.vmm_request);
    AddStageMetrics(json, arm, "buffer_ack", r.stages.buffer_ack);
    AddStageMetrics(json, arm, "medium_write", r.stages.medium_write);
    AddStageMetrics(json, arm, "device_flush", r.stages.device_flush);
  }
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].snapshots_json.empty()) {
      json.AddRaw(std::string("snapshots_") + kArms[i].name,
                  results[i].snapshots_json);
    }
  }
  if (json.WriteFile(json_out)) {
    std::printf("\nwrote %s\n", json_out.c_str());
  }

  if (!trace_out.empty()) {
    // Dedicated traced re-run of the rapilog arm: identical config, so the
    // trace depicts exactly the run reported above (tracing is passive and
    // cannot perturb it), and the table runs stay shareable across --jobs.
    rlobs::SpanTracer tracer;
    rlbench::TpccRunConfig cfg =
        ArmConfig(DeploymentMode::kRapiLog, rlsim::Duration::Zero());
    cfg.sink = &tracer;
    rlbench::RunTpcc(cfg);
    if (rlobs::WriteChromeTrace(tracer, trace_out)) {
      std::printf("wrote %s (%zu trace events)\n", trace_out.c_str(),
                  tracer.records().size());
    }
    // Critical-path view of the traced arm. Single-node commit-path spans
    // are mostly independent roots (stage spans don't nest under one
    // client-visible root the way fleet 2PC spans do), so each class's
    // breakdown is dominated by its own self time — still useful as a
    // per-class duration census, and the same report shape as E13's.
    const rlobs::CriticalPathReport cp =
        rlobs::AnalyzeCriticalPaths(rlobs::CollectSpans(tracer));
    std::fputs(rlobs::FormatCriticalPath(cp).c_str(), stdout);
  }
  return 0;
}
