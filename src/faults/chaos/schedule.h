// Chaos schedules: a fully deterministic description of one fault-injection
// episode — topology (deployment mode, disk setup, replication), workload
// length, and a timed list of fault events. A schedule is the unit the
// explorer generates from a seed, the shrinker minimises, and the replay
// file format round-trips, so a failing run is reproducible bit-for-bit from
// a short text file.
//
// Event times are microseconds relative to workload start (after the initial
// load completes). The runner applies each event when the virtual clock
// reaches it, with state guards (e.g. a power cut is a no-op while mains are
// already out) so that shrinking — which only removes events — can never
// produce an inapplicable schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/harness/testbed.h"
#include "src/replica/log_shipper.h"

namespace rlchaos {

enum class FaultKind {
  kPowerCut,          // pull the plug on the primary
  kPowerRestore,      // mains return; the runner drives recovery
  kGuestCrash,        // kill the guest OS/DBMS only
  kGuestRecover,      // reboot the guest and reopen the database
  kLogDiskFault,      // arg = number of log-disk writes to fail (torn)
  kDataDiskFault,     // arg = number of data-disk writes to fail (torn)
  kPartitionReplica,  // arg = replica index; link goes down
  kHealReplica,       // arg = replica index; link comes back
  kKillReplica,       // arg = replica index; disk powers off, link down
  kReviveReplica,     // arg = replica index; disk powers on, link up
  kLinkDegrade,       // arg = replica index; link becomes lossy
  kLinkRestore,       // arg = replica index; link loss removed
  // Fleet episodes only (EpisodeConfig::fleet_shards > 0); no-ops in the
  // classic single-testbed runner so shrinking stays closed over the kinds.
  kKillShard,           // arg = shard index; power cut on that shard
  kRecoverShard,        // arg = shard index; power + crash recovery
  kPartitionShard,      // arg = shard index; coord<->shard link down
  kHealShard,           // arg = shard index; link back up
  kKillCoordinator,     // volatile state + the coordinator host's mains
  kRecoverCoordinator,  // mains back, decision log rescanned
};

std::string ToString(FaultKind k);
// Returns false if `s` names no kind.
bool FaultKindFromString(const std::string& s, FaultKind* out);

struct FaultEvent {
  int64_t at_us = 0;
  FaultKind kind = FaultKind::kPowerCut;
  uint32_t arg = 0;

  bool operator==(const FaultEvent&) const = default;
};

struct EpisodeConfig {
  uint64_t seed = 1;
  rlharness::DeploymentMode mode = rlharness::DeploymentMode::kRapiLog;
  rlharness::DiskSetup disks = rlharness::DiskSetup::kSharedHdd;
  size_t replicas = 0;  // 0 = unreplicated
  rlrep::ShipMode ship_mode = rlrep::ShipMode::kAsync;
  // Final recovery restores the log from the best replica instead of the
  // primary's disk. Only sound for quorum episodes whose primary dies in its
  // first power epoch (see GenerateEpisode).
  bool restore_from_replica = false;
  // RapiLog's power guard (the ablation plants a violation by disabling it).
  bool power_guard = true;
  int64_t run_us = 300'000;  // workload window; events land inside it
  // Fleet topology (E13): > 0 runs the episode on a FleetTestbed of this
  // many shards behind a 2PC coordinator instead of a single Testbed, with
  // the fleet atomicity oracle. Serialised as the v2 schedule format; plain
  // (fleet_shards == 0) schedules stay byte-identical v1.
  size_t fleet_shards = 0;
  // Cross-shard transaction probability for fleet episodes.
  double cross_ratio = 0.3;
  std::vector<FaultEvent> events;

  bool operator==(const EpisodeConfig&) const = default;
};

// Canonical order: by time, ties broken by kind then arg, so serialisation
// and shrinking are deterministic.
void SortEvents(std::vector<FaultEvent>* events);

// Text round-trip (the `--replay` file format, versioned).
std::string Serialize(const EpisodeConfig& cfg);
// Returns false and sets *error on malformed input.
bool Parse(const std::string& text, EpisodeConfig* out, std::string* error);

struct GeneratorOptions {
  // false generates the ablation: RapiLog without its power guard, which
  // loses acked commits at a cut. Its episodes run RapiLog only, with no
  // replication, over a 600-900 ms window (run_us_min/max do not apply).
  bool power_guard = true;
  int min_faults = 1;   // fault motifs per episode (a motif is 1-4 events)
  int max_faults = 5;
  int64_t run_us_min = 250'000;
  int64_t run_us_max = 450'000;
  // > 0 generates fleet episodes (see EpisodeConfig::fleet_shards): RapiLog
  // mode, no per-shard replication, fleet fault motifs (shard power cycles,
  // shard partitions, coordinator kills) aimed at 2PC message boundaries.
  size_t fleet_shards = 0;
  // Cross-shard probability for generated fleet episodes; negative samples
  // one of {0.1, 0.3, 0.6} per seed.
  double cross_ratio = -1.0;
};

// Deterministically derives a schedule from the seed: same seed (and
// options), same schedule — the episode seed also seeds the simulator, so
// the whole run is a pure function of it.
EpisodeConfig GenerateEpisode(uint64_t seed, const GeneratorOptions& opts);

}  // namespace rlchaos
