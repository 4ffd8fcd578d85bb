// Periodic virtual-time metrics snapshots.
//
// MetricsSnapshotter samples a StatsRegistry every `interval` of simulated
// time and keeps (timestamp, JSON) pairs, turning end-of-run aggregates into
// a coarse time series ("what did p99 look like during the outage window?").
// Sampling happens on the simulator's own event queue, so snapshot instants
// are deterministic; reading the registry mutates nothing, so a run with a
// snapshotter attached is behaviourally identical to one without — except
// for the snapshot events themselves, which is why the loop ends once Stop()
// is called, as the workload clients do (the simulator runs until its queue
// drains; an unconditional periodic task would keep it alive forever).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace rlobs {

class MetricsSnapshotter {
 public:
  struct Snapshot {
    int64_t at_ns;
    std::string json;  // StatsRegistry::ToJson() at that instant
  };

  MetricsSnapshotter(rlsim::Simulator& sim,
                     const rlsim::StatsRegistry& registry,
                     rlsim::Duration interval)
      : sim_(sim), registry_(registry), interval_(interval) {}

  // Spawns the sampling loop. The loop reads the snapshotter's stop state
  // at every tick, so the snapshotter must outlive it.
  void Start();

  // Ends the loop at its next tick, which records nothing and schedules no
  // further tick.
  void Stop() { stopped_ = true; }

  const std::vector<Snapshot>& snapshots() const { return snapshots_; }

  // [{"t_ns":...,"stats":{...}},...] — one line per snapshot.
  std::string ToJson() const;

 private:
  rlsim::Task<void> Loop();

  rlsim::Simulator& sim_;
  const rlsim::StatsRegistry& registry_;
  rlsim::Duration interval_;
  std::vector<Snapshot> snapshots_;
  bool stopped_ = false;
};

}  // namespace rlobs
