// Shared harness code for the experiment benchmarks (E1..E10): runs a
// workload on a Testbed configuration for a stretch of simulated time and
// reports throughput/latency, plus small table-printing helpers.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/trace.h"
#include "src/workload/kv_workload.h"
#include "src/workload/tpcc_lite.h"

namespace rlbench {

// Per-stage commit-path latency, copied out of the component histograms at
// the end of the measurement window (warmup excluded by the same reset that
// restarts the workload counters). Stages a deployment mode does not have
// stay empty: vmm_request in kNative (no guest stack), buffer_ack outside
// kRapiLog. On a shared spindle (DiskSetup::kSharedHdd) medium_write also
// includes data-page traffic — it is the physical device the log lands on,
// not a log-only probe.
struct StageStats {
  rlsim::Histogram guest_commit_wait;  // WAL WaitDurable blocked time
  rlsim::Histogram vmm_request;        // guest-observed vblk request latency
  rlsim::Histogram buffer_ack;         // RapiLog buffered-ack latency
  rlsim::Histogram medium_write;       // physical log-disk write latency
  rlsim::Histogram device_flush;       // physical log-disk flush latency
};

struct RunResult {
  double txns_per_sec = 0;
  double new_orders_per_sec = 0;
  int64_t committed = 0;
  int64_t lock_aborts = 0;
  rlsim::Duration p50 = rlsim::Duration::Zero();
  rlsim::Duration p95 = rlsim::Duration::Zero();
  rlsim::Duration p99 = rlsim::Duration::Zero();
  rlsim::Duration mean = rlsim::Duration::Zero();
  StageStats stages;
  // JSON array of periodic StatsRegistry snapshots (see
  // src/obs/metrics_snapshot.h); empty unless TpccRunConfig::snapshot_every
  // was set.
  std::string snapshots_json;
};

struct TpccRunConfig {
  rlharness::TestbedOptions testbed;
  rlwork::TpccConfig tpcc;
  int clients = 16;
  rlsim::Duration warmup = rlsim::Duration::Millis(500);
  rlsim::Duration measure = rlsim::Duration::Seconds(3);
  uint64_t seed = 42;
  // Observability hooks. Neither affects the simulation's behaviour — spans
  // and snapshots are passive observers (see DESIGN.md "Observability").
  // `sink` is installed as the run's trace sink for the whole run (including
  // warmup); it must not be shared across concurrent RunTpccMany jobs.
  rlsim::TraceEventSink* sink = nullptr;
  // Zero = no snapshots. When set, a MetricsSnapshotter samples the run's
  // stats registry every `snapshot_every` of virtual time across the
  // measurement window; the series lands in RunResult::snapshots_json.
  rlsim::Duration snapshot_every = rlsim::Duration::Zero();
};

// Runs TPC-C-lite on a fresh testbed and reports steady-state results
// (warmup excluded by resetting the counters).
RunResult RunTpcc(const TpccRunConfig& config);

// Runs every config as an independent job across `jobs` worker threads
// (src/harness/parallel_runner); results[i] corresponds to configs[i], so a
// sweep printed from the returned vector is byte-identical at any job
// count. Each cell builds its own Simulator/Testbed; nothing is shared.
std::vector<RunResult> RunTpccMany(const std::vector<TpccRunConfig>& configs,
                                   int jobs);

// Standard testbed options used across experiments.
rlharness::TestbedOptions DefaultTestbed(rlharness::DeploymentMode mode,
                                         rlharness::DiskSetup disks,
                                         const rldb::EngineProfile& profile);

// Standard small-but-contended TPC-C sizing.
rlwork::TpccConfig DefaultTpcc();

// --- Output helpers ----------------------------------------------------------

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Buffered table whose columns are sized to their widest cell (+2 gap), so
// long values (big throughput numbers, duration strings) never spill out of
// a hardcoded column width and break alignment. All bench tables route
// through this.
class Table {
 public:
  void Row(std::vector<std::string> cells);
  // Renders every buffered row to stdout and clears the table.
  void Print();

 private:
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, const char* fmt = "%.1f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

inline std::string FmtDur(rlsim::Duration d) { return rlsim::ToString(d); }

// --- Command line -------------------------------------------------------------

// One entry of a bench's flag table. `metavar` names the value in the usage
// line; an entry without one is a switch that takes no value. `set` stores
// the value and returns false when it is not `wanted`.
struct Flag {
  std::string name;
  std::string metavar;
  std::string wanted;
  std::function<bool(const char* value)> set;
};

// Flag kinds. Each writes through its pointer only when its flag is given,
// so the pointee's initial value is the flag's default.
// A whole decimal number in [0, max].
Flag Uint(const char* name, uint64_t* value, uint64_t max = UINT64_MAX);
// Worker threads: N, or every core for 0.
Flag Jobs(const char* name, int* value);
// A decimal fraction in [0, 1].
Flag Fraction(const char* name, double* value);
// One of `choices`, verbatim.
Flag Choice(const char* name, std::vector<std::string> choices,
            std::string* value);
// Any text, such as a file or directory name.
Flag Path(const char* name, std::string* value, const char* metavar = "FILE");
// No value: sets `*value` to true.
Flag Switch(const char* name, bool* value);

// The only argv parser in bench/. Parses argv[1..argc) against `flags`; on
// an unknown flag, a missing value or a value its flag rejects, it prints
// the problem and the usage line to stderr and exits with status 2. Returns
// the usage line, which lists `flags` in table order, for rules that span
// several flags (see UsageError).
std::string ParseFlags(int argc, char** argv, const char* program,
                       const std::vector<Flag>& flags);

// Prints `message` and `usage` to stderr and exits with status 2.
[[noreturn]] void UsageError(const std::string& message,
                             const std::string& usage);

// --- Machine-readable bench output -------------------------------------------

// Collects named metrics and writes them as JSON (insertion order preserved,
// so output is deterministic): {"metrics":[{"name":...,"value":...,
// "unit":...},...]}. Used by bench_micro --json to produce BENCH_perf.json
// (the perf baseline later PRs are judged against) and by the experiment
// benches for their BENCH_e*.json files.
class BenchJsonWriter {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Attaches a pre-rendered JSON value as a top-level key next to "metrics"
  // (e.g. a MetricsSnapshotter series). `json` must already be valid JSON;
  // it is spliced in verbatim, insertion order preserved.
  void AddRaw(const std::string& name, const std::string& json);
  std::string ToString() const;
  // Returns false (and prints to stderr) if the file cannot be written.
  bool WriteFile(const std::string& path) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> raw_;
};

}  // namespace rlbench
