// Shared types of the benchmark driver: what one pass of a workload
// measures, and the exact-percentile helpers every report uses.
//
// A pass builds a fresh simulation from the seed, sets it up, runs a fixed
// virtual-time measured window and checks the outputs. Virtual-time results
// are pure functions of (workload, seed, window); host-time results are the
// CPU time this process spent producing them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "src/sim/simulator.h"

namespace perfbench {

struct PassOptions {
  uint64_t seed = 1;
  // Size of the measured window: virtual seconds of client load for the
  // OLTP and fleet workloads, power cuts for powercut-recover.
  double window = 1.0;
  // Installs an rlobs::SpanTracer for the whole pass and fills
  // PassResult::spans.
  bool trace = false;
};

struct PassResult {
  // --- correctness --------------------------------------------------------
  bool correct = true;
  std::vector<std::string> errors;

  // --- virtual-time outcome of the measured window ------------------------
  int64_t attempted = 0;    // transaction outcomes that arrived in the window
  int64_t committed = 0;    // of which acknowledged commits
  int64_t lock_aborts = 0;  // engine lock timeouts
  int64_t tpc_aborts = 0;   // coordinator presumed-abort outcomes
  int64_t unknown = 0;      // coordinator could not report an outcome
  int64_t lost_acked = 0;   // acknowledged writes missing after recovery
  int64_t cuts = 0;         // deliberate power cuts
  int64_t clients = 0;
  double window_s = 0;      // virtual seconds the clients ran in the window
  std::vector<int64_t> latency_ns;   // one per acknowledged commit
  std::vector<int64_t> recovery_ns;  // virtual RestorePowerAndRecover times
  // Order-sensitive digest of every outcome (client or id, latency, result):
  // the traced pass must reproduce it exactly.
  uint64_t digest = 1469598103934665603ull;

  // --- host time ------------------------------------------------------------
  double setup_s = 0;                 // build + start + load + warm up
  double window_host_s = 0;           // host time of the measured window
  double load_host_s = 0;             // host time of its client phases
  std::vector<double> recovery_host_s;  // inside the window, per cut
  int64_t window_events = 0;          // simulator events in the window

  // --- per layer --------------------------------------------------------------
  LayerCounters layers;  // deltas across the measured window
  LayerGauges gauges;    // whole-run histograms and configuration
  SpanSummary spans;     // traced passes only
};

// Host time is the CPU time of this single-threaded process: on an idle
// machine it equals wall time, and it leaves out time the OS gives to other
// processes, which makes it steadier on a shared machine.
double HostSeconds();

void Mix(uint64_t& digest, uint64_t value);
// An independent seed for stream `stream` (a round, a client) of `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

// Exact percentile of `samples` (sorted in place): the nearest-rank value,
// i.e. the smallest sample with at least p% of samples at or below it.
int64_t ExactPercentile(std::vector<int64_t>& samples, double p);
// How many samples lie strictly above the nearest-rank p-th percentile.
int64_t SamplesAbove(std::vector<int64_t>& samples, double p);
double Median(std::vector<double> values);

// Records a failed correctness check.
void Fail(PassResult& out, std::string what);

// Runs `sim` until a task calls Stop() or the queue drains or, given a
// deadline, until it passes; an escaped exception becomes a failed check.
size_t RunSegment(rlsim::Simulator& sim, PassResult& out,
                  rlsim::TimePoint deadline = rlsim::TimePoint::Max());

// Adds one round's results to a running total: counts and samples are
// summed; the caller divides the summed gauges by the number of rounds.
void Accumulate(PassResult& total, PassResult round);

PassResult RunOltp(const PassOptions& options, bool ssd_log);
PassResult RunPowercut(const PassOptions& options);
PassResult RunFleet(const PassOptions& options);

}  // namespace perfbench
