#include "src/faults/chaos/schedule.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <tuple>

#include "src/sim/rng.h"

namespace rlchaos {

using rlharness::DeploymentMode;
using rlharness::DiskSetup;
using rlrep::ShipMode;

std::string ToString(FaultKind k) {
  switch (k) {
    case FaultKind::kPowerCut:
      return "power-cut";
    case FaultKind::kPowerRestore:
      return "power-restore";
    case FaultKind::kGuestCrash:
      return "guest-crash";
    case FaultKind::kGuestRecover:
      return "guest-recover";
    case FaultKind::kLogDiskFault:
      return "log-disk-fault";
    case FaultKind::kDataDiskFault:
      return "data-disk-fault";
    case FaultKind::kPartitionReplica:
      return "partition-replica";
    case FaultKind::kHealReplica:
      return "heal-replica";
    case FaultKind::kKillReplica:
      return "kill-replica";
    case FaultKind::kReviveReplica:
      return "revive-replica";
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kLinkRestore:
      return "link-restore";
    case FaultKind::kKillShard:
      return "kill-shard";
    case FaultKind::kRecoverShard:
      return "recover-shard";
    case FaultKind::kPartitionShard:
      return "partition-shard";
    case FaultKind::kHealShard:
      return "heal-shard";
    case FaultKind::kKillCoordinator:
      return "kill-coordinator";
    case FaultKind::kRecoverCoordinator:
      return "recover-coordinator";
  }
  return "unknown";
}

namespace {

constexpr FaultKind kAllKinds[] = {
    FaultKind::kPowerCut,         FaultKind::kPowerRestore,
    FaultKind::kGuestCrash,       FaultKind::kGuestRecover,
    FaultKind::kLogDiskFault,     FaultKind::kDataDiskFault,
    FaultKind::kPartitionReplica, FaultKind::kHealReplica,
    FaultKind::kKillReplica,      FaultKind::kReviveReplica,
    FaultKind::kLinkDegrade,      FaultKind::kLinkRestore,
    FaultKind::kKillShard,        FaultKind::kRecoverShard,
    FaultKind::kPartitionShard,   FaultKind::kHealShard,
    FaultKind::kKillCoordinator,  FaultKind::kRecoverCoordinator,
};

bool ModeFromString(const std::string& s, DeploymentMode* out) {
  for (const DeploymentMode m :
       {DeploymentMode::kNative, DeploymentMode::kVirt,
        DeploymentMode::kRapiLog, DeploymentMode::kUnsafeAsync}) {
    if (rlharness::ToString(m) == s) {
      *out = m;
      return true;
    }
  }
  return false;
}

bool DisksFromString(const std::string& s, DiskSetup* out) {
  for (const DiskSetup d : {DiskSetup::kSharedHdd, DiskSetup::kSeparateHdd,
                            DiskSetup::kBbwc, DiskSetup::kSsdLog}) {
    if (rlharness::ToString(d) == s) {
      *out = d;
      return true;
    }
  }
  return false;
}

bool ShipFromString(const std::string& s, ShipMode* out) {
  for (const ShipMode m : {ShipMode::kAsync, ShipMode::kQuorumAck}) {
    if (rlrep::ToString(m) == s) {
      *out = m;
      return true;
    }
  }
  return false;
}

}  // namespace

bool FaultKindFromString(const std::string& s, FaultKind* out) {
  for (const FaultKind k : kAllKinds) {
    if (ToString(k) == s) {
      *out = k;
      return true;
    }
  }
  return false;
}

void SortEvents(std::vector<FaultEvent>* events) {
  std::sort(events->begin(), events->end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::tuple(a.at_us, static_cast<int>(a.kind), a.arg) <
                     std::tuple(b.at_us, static_cast<int>(b.kind), b.arg);
            });
}

std::string Serialize(const EpisodeConfig& cfg) {
  std::ostringstream out;
  // Fleet episodes need the v2 keys; plain schedules keep emitting the v1
  // format byte-for-byte so every existing recorded schedule still diffs
  // clean against a re-serialisation.
  const bool fleet = cfg.fleet_shards > 0;
  out << (fleet ? "rapilog-chaos-schedule v2\n" : "rapilog-chaos-schedule v1\n");
  out << "seed " << cfg.seed << "\n";
  out << "mode " << rlharness::ToString(cfg.mode) << "\n";
  out << "disks " << rlharness::ToString(cfg.disks) << "\n";
  out << "replicas " << cfg.replicas << "\n";
  out << "ship "
      << (cfg.replicas == 0 ? std::string("none")
                            : rlrep::ToString(cfg.ship_mode))
      << "\n";
  out << "restore-from-replica " << (cfg.restore_from_replica ? 1 : 0) << "\n";
  out << "power-guard " << (cfg.power_guard ? 1 : 0) << "\n";
  out << "run-us " << cfg.run_us << "\n";
  if (fleet) {
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.4f", cfg.cross_ratio);
    out << "fleet-shards " << cfg.fleet_shards << "\n";
    out << "cross-ratio " << ratio << "\n";
  }
  for (const FaultEvent& e : cfg.events) {
    out << "event " << e.at_us << " " << ToString(e.kind) << " " << e.arg
        << "\n";
  }
  out << "end\n";
  return out.str();
}

bool Parse(const std::string& text, EpisodeConfig* out, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || (line != "rapilog-chaos-schedule v1" &&
                                  line != "rapilog-chaos-schedule v2")) {
    return fail("bad header (want 'rapilog-chaos-schedule v1' or 'v2')");
  }
  EpisodeConfig cfg;
  cfg.events.clear();
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "seed") {
      if (!(fields >> cfg.seed)) {
        return fail("bad seed line: " + line);
      }
    } else if (key == "mode") {
      std::string v;
      fields >> v;
      if (!ModeFromString(v, &cfg.mode)) {
        return fail("unknown mode: " + v);
      }
    } else if (key == "disks") {
      std::string v;
      fields >> v;
      if (!DisksFromString(v, &cfg.disks)) {
        return fail("unknown disks: " + v);
      }
    } else if (key == "replicas") {
      if (!(fields >> cfg.replicas)) {
        return fail("bad replicas line: " + line);
      }
    } else if (key == "ship") {
      std::string v;
      fields >> v;
      if (v != "none" && !ShipFromString(v, &cfg.ship_mode)) {
        return fail("unknown ship mode: " + v);
      }
    } else if (key == "restore-from-replica") {
      int v = 0;
      if (!(fields >> v)) {
        return fail("bad restore-from-replica line: " + line);
      }
      cfg.restore_from_replica = v != 0;
    } else if (key == "power-guard") {
      int v = 0;
      if (!(fields >> v)) {
        return fail("bad power-guard line: " + line);
      }
      cfg.power_guard = v != 0;
    } else if (key == "run-us") {
      if (!(fields >> cfg.run_us) || cfg.run_us <= 0) {
        return fail("bad run-us line: " + line);
      }
    } else if (key == "fleet-shards") {
      if (!(fields >> cfg.fleet_shards)) {
        return fail("bad fleet-shards line: " + line);
      }
    } else if (key == "cross-ratio") {
      if (!(fields >> cfg.cross_ratio) || cfg.cross_ratio < 0 ||
          cfg.cross_ratio > 1) {
        return fail("bad cross-ratio line: " + line);
      }
    } else if (key == "event") {
      FaultEvent e;
      std::string kind;
      if (!(fields >> e.at_us >> kind >> e.arg) || e.at_us < 0) {
        return fail("bad event line: " + line);
      }
      if (!FaultKindFromString(kind, &e.kind)) {
        return fail("unknown fault kind: " + kind);
      }
      cfg.events.push_back(e);
    } else {
      return fail("unknown key: " + key);
    }
  }
  if (!saw_end) {
    return fail("missing 'end' terminator");
  }
  SortEvents(&cfg.events);
  *out = cfg;
  return true;
}

EpisodeConfig GenerateEpisode(uint64_t seed, const GeneratorOptions& opts) {
  // The generator's randomness is independent of the simulator's: the
  // schedule is fixed before the episode starts, exactly as a replayed file
  // would be.
  rlsim::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  EpisodeConfig cfg;
  cfg.seed = seed;
  cfg.power_guard = opts.power_guard;
  // The ablation's loss needs a cut landing inside the post-restore
  // recovery/checkpoint churn, so its window leaves room for a full recovery
  // (restore + 300 ms settle + open); otherwise the minimal reproducer races
  // the episode wind-down.
  cfg.run_us = opts.power_guard
                   ? rng.UniformInt(opts.run_us_min, opts.run_us_max)
                   : rng.UniformInt(600'000, 900'000);

  if (opts.fleet_shards > 0) {
    // Fleet episode (E13): N shard testbeds behind a 2PC coordinator. The
    // motifs target the protocol's message boundaries — a kill landing
    // between prepare and decision is the interesting schedule, and with
    // events drawn uniformly across the window while hundreds of
    // transactions run, every boundary gets hit across a seed sweep.
    cfg.fleet_shards = opts.fleet_shards;
    cfg.mode = DeploymentMode::kRapiLog;
    constexpr DiskSetup kFleetDisks[] = {DiskSetup::kSharedHdd,
                                         DiskSetup::kSsdLog};
    cfg.disks = kFleetDisks[rng.NextBelow(2)];
    if (opts.cross_ratio >= 0) {
      cfg.cross_ratio = opts.cross_ratio;
    } else {
      constexpr double kRatios[] = {0.1, 0.3, 0.6};
      cfg.cross_ratio = kRatios[rng.NextBelow(3)];
    }
    const int motifs =
        static_cast<int>(rng.UniformInt(opts.min_faults, opts.max_faults));
    for (int m = 0; m < motifs; ++m) {
      const int64_t t = rng.UniformInt(10'000, cfg.run_us);
      const auto shard =
          static_cast<uint32_t>(rng.NextBelow(opts.fleet_shards));
      enum FleetMotif { kShardCycle, kShardPartition, kCoordCycle };
      switch (static_cast<FleetMotif>(rng.NextBelow(3))) {
        case kShardCycle:
          cfg.events.push_back({t, FaultKind::kKillShard, shard});
          cfg.events.push_back({t + rng.UniformInt(30'000, 200'000),
                                FaultKind::kRecoverShard, shard});
          break;
        case kShardPartition:
          cfg.events.push_back({t, FaultKind::kPartitionShard, shard});
          cfg.events.push_back({t + rng.UniformInt(30'000, 250'000),
                                FaultKind::kHealShard, shard});
          break;
        case kCoordCycle:
          cfg.events.push_back({t, FaultKind::kKillCoordinator, 0});
          cfg.events.push_back({t + rng.UniformInt(30'000, 200'000),
                                FaultKind::kRecoverCoordinator, 0});
          break;
      }
    }
    SortEvents(&cfg.events);
    return cfg;
  }

  if (!opts.power_guard) {
    cfg.mode = DeploymentMode::kRapiLog;
  } else {
    // Bias toward the headline deployment; kUnsafeAsync is excluded because
    // it legitimately loses data (no oracle applies).
    constexpr DeploymentMode kModes[] = {
        DeploymentMode::kNative, DeploymentMode::kVirt,
        DeploymentMode::kRapiLog, DeploymentMode::kRapiLog};
    cfg.mode = kModes[rng.NextBelow(4)];
  }
  constexpr DiskSetup kDiskSetups[] = {DiskSetup::kSharedHdd,
                                       DiskSetup::kSeparateHdd,
                                       DiskSetup::kBbwc, DiskSetup::kSsdLog};
  cfg.disks = kDiskSetups[rng.NextBelow(4)];
  if (opts.power_guard && rng.Chance(0.45)) {
    if (rng.Chance(0.5)) {
      cfg.replicas = 3;
      cfg.ship_mode = ShipMode::kQuorumAck;
    } else {
      cfg.replicas = 2;
      cfg.ship_mode = ShipMode::kAsync;
    }
  }

  const int motifs =
      static_cast<int>(rng.UniformInt(opts.min_faults, opts.max_faults));
  bool replica_disruption = false;
  bool power_cycle = false;
  for (int m = 0; m < motifs; ++m) {
    const int64_t t = rng.UniformInt(10'000, cfg.run_us);
    // Motifs valid for this topology.
    enum Motif { kCycle, kGuest, kDisk, kPartition, kKill, kDegrade };
    std::vector<Motif> valid = {kCycle, kDisk};
    if (cfg.mode != DeploymentMode::kNative) {
      valid.push_back(kGuest);
    }
    if (cfg.replicas > 0) {
      valid.push_back(kPartition);
      valid.push_back(kKill);
      valid.push_back(kDegrade);
    }
    switch (valid[rng.NextBelow(valid.size())]) {
      case kCycle: {
        power_cycle = true;
        const int64_t restore = t + rng.UniformInt(20'000, 150'000);
        cfg.events.push_back({t, FaultKind::kPowerCut, 0});
        cfg.events.push_back({restore, FaultKind::kPowerRestore, 0});
        if (rng.Chance(0.35)) {
          // A second cut aimed at the recovery window (recovery itself takes
          // a few hundred virtual ms): faults-during-recovery coverage.
          const int64_t again = restore + rng.UniformInt(10'000, 350'000);
          cfg.events.push_back({again, FaultKind::kPowerCut, 0});
          cfg.events.push_back({again + rng.UniformInt(20'000, 150'000),
                                FaultKind::kPowerRestore, 0});
        }
        break;
      }
      case kGuest: {
        cfg.events.push_back({t, FaultKind::kGuestCrash, 0});
        cfg.events.push_back(
            {t + rng.UniformInt(20'000, 120'000), FaultKind::kGuestRecover, 0});
        break;
      }
      case kDisk: {
        const FaultKind k = rng.Chance(0.6) ? FaultKind::kLogDiskFault
                                            : FaultKind::kDataDiskFault;
        cfg.events.push_back(
            {t, k, static_cast<uint32_t>(rng.UniformInt(1, 4))});
        break;
      }
      case kPartition: {
        replica_disruption = true;
        const auto r = static_cast<uint32_t>(rng.NextBelow(cfg.replicas));
        cfg.events.push_back({t, FaultKind::kPartitionReplica, r});
        cfg.events.push_back(
            {t + rng.UniformInt(30'000, 200'000), FaultKind::kHealReplica, r});
        break;
      }
      case kKill: {
        replica_disruption = true;
        const auto r = static_cast<uint32_t>(rng.NextBelow(cfg.replicas));
        cfg.events.push_back({t, FaultKind::kKillReplica, r});
        cfg.events.push_back(
            {t + rng.UniformInt(30'000, 200'000), FaultKind::kReviveReplica, r});
        break;
      }
      case kDegrade: {
        replica_disruption = true;
        const auto r = static_cast<uint32_t>(rng.NextBelow(cfg.replicas));
        cfg.events.push_back({t, FaultKind::kLinkDegrade, r});
        cfg.events.push_back(
            {t + rng.UniformInt(50'000, 250'000), FaultKind::kLinkRestore, r});
        break;
      }
    }
  }

  // Restore-from-replica is only a sound recovery strategy when the primary
  // dies in its first power epoch with an undisturbed quorum: a mid-episode
  // power cycle RESETs the replicas across a sequence gap, which can leave
  // LBA holes in their log images, and async mode's loss is legitimately
  // bounded, not zero. Shrinking only removes events, so the property is
  // preserved under minimisation.
  cfg.restore_from_replica = cfg.replicas > 0 &&
                             cfg.ship_mode == ShipMode::kQuorumAck &&
                             !replica_disruption && !power_cycle;
  SortEvents(&cfg.events);
  return cfg;
}

}  // namespace rlchaos
