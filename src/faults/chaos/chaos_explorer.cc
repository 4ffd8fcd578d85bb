#include "src/faults/chaos/chaos_explorer.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "src/faults/durability_checker.h"
#include "src/faults/fleet_checker.h"
#include "src/faults/recovery_oracle.h"
#include "src/harness/fleet_testbed.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/post_mortem.h"
#include "src/sim/bytes.h"
#include "src/sim/check.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/workload/fleet_workload.h"
#include "src/workload/kv_workload.h"

namespace rlchaos {

using rlharness::FleetTestbed;
using rlharness::Testbed;
using rlharness::TestbedOptions;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

// Trace records an episode's post-mortem shows.
constexpr size_t kPostMortemRecords = 512;

// Virtual-time ceiling for either recovery-equivalence probe. Generous by
// design: the chaos corpus has arbitrary WAL lengths, so this catches hangs
// and pathological blow-ups, not modest slowdowns (the strict scaling
// assertions live in recovery_time_bound_test with a controlled WAL).
constexpr Duration kRecoveryBudget = Duration::Seconds(30);

// The engine sizing every chaos testbed runs with (classic bed or fleet
// shard): a small pool and journal so checkpoints, page evictions and
// journal replays happen inside a sub-second episode. Chaos-kill recoveries
// run eight redo streams; the classic wind-down's recovery-equivalence
// oracle cross-checks them against one stream on the cloned crash images.
TestbedOptions ChaosTestbedOptions(const EpisodeConfig& cfg) {
  TestbedOptions opts;
  opts.mode = cfg.mode;
  opts.disks = cfg.disks;
  opts.db.pool_pages = 512;
  opts.db.journal_pages = 300;
  opts.db.profile.checkpoint_dirty_pages = 128;
  opts.db.recovery.partitions = 8;
  opts.rapilog.enable_power_guard = cfg.power_guard;
  return opts;
}

// The one episode skeleton. It owns startup, the client fleet, the schedule
// loop to the horizon, the mid-episode recovery tasks, the wind-down, the
// final-recovery retry loop and the oracle bookkeeping. A topology adapter
// (ClassicEpisode, FleetEpisode below) supplies only what differs: how to
// boot, what a client runs, what each fault kind does, how everything comes
// back at the end, and which oracles judge the result.
class Episode {
 public:
  // `checker` is the adapter's oracle, fed by every client.
  Episode(Simulator& sim, const EpisodeConfig& cfg, const RunOptions& run,
          EpisodeOutcome& out, rlfault::DurabilityChecker& checker)
      : sim_(sim), cfg_(cfg), run_(run), out_(out), clients_(sim, &checker),
        rec_done_(sim) {}
  virtual ~Episode() = default;

  Task<void> Main();

  // Folds the client counters into the outcome once the run is over. A
  // classic episode's clients commit no cross-shard transaction and see no
  // unknown outcome, so both fleet counters stay 0 there.
  void Tally() {
    const rlwork::ClientDriver::Stats& s = clients_.stats();
    out_.committed = static_cast<uint64_t>(s.committed.value());
    out_.machine_deaths += static_cast<uint64_t>(s.machine_deaths.value());
    out_.fleet_cross_committed = static_cast<uint64_t>(
        s.committed_by_kind[rlwork::FleetWorkload::kCrossShard].value());
    out_.fleet_unknown_outcomes = static_cast<uint64_t>(s.unknown.value());
  }

 protected:
  // --- Topology adapter steps ---------------------------------------------
  // Boots the topology and loads any initial data; throwing is a startup
  // failure.
  virtual Task<void> Start() = 0;
  // The workload's clients on the topology as it stands now.
  virtual rlwork::ClientDriver::NewClient Clients() = 0;
  // Applies one schedule event, guarded against states where it cannot
  // apply, so that any subsequence of a valid schedule (shrinking only
  // drops events) is itself valid. Kinds of the other family are no-ops.
  virtual void Apply(const FaultEvent& e) = 0;
  // The state an event is applied against (power, engines, recoveries in
  // flight), printed with every traced event: it explains why an event of a
  // shrunk schedule was a no-op.
  virtual std::string State() const = 0;
  // Runs after every successful mid-episode recovery.
  virtual Task<void> AfterRecovery(std::string /*what*/) { co_return; }
  // Wind-down: brings everything back up (via RecoverWithRetry). False ends
  // the episode; the failure is already recorded as a violation.
  virtual Task<bool> RecoverAll() = 0;
  // The oracles over the fully recovered topology.
  virtual Task<void> FinalOracles() = 0;

  // --- Skeleton services for the adapters ---------------------------------
  // Starts a fresh generation of four clients.
  void SpawnClients();
  void StopClients() { clients_.Stop(); }

  // At most one recovery per target is in flight; the wind-down waits for
  // all of them so the final normalisation never races one.
  // `what` names the target in traces and in the post-mortem's
  // "<what>-recovery-ok" events, so it holds no spaces.
  bool Recovering(int target) const { return recovering_.contains(target); }
  void SpawnRecovery(int target, std::string what, Task<void> recover);

  // The final-recovery retry loop: up to 5 attempts, 200 ms apart, until
  // up() holds. A throwing attempt (a fault left armed by the schedule's
  // tail, a half-open engine) is retried after the settle delay.
  Task<bool> RecoverWithRetry(std::string what, std::function<bool()> up,
                              std::function<Task<void>()> attempt);

  // Accumulates one checker verdict into the outcome.
  void Absorb(const rlfault::VerifyResult& v, const std::string& when);
  // Structural B-tree walk; a tripped invariant is a violation, an engine
  // that dies mid-walk is inconclusive.
  Task<void> CheckTree(rldb::Database& db, std::string where);
  // RapiLog's contract: with the power guard on, the emergency flush drains
  // the buffer inside the hold-up window — buffered-ack loss is a violation.
  // With the guard ablated, loss is the EXPECTED planted failure.
  void CheckPowerGuard(const rapilog::RapiLogDevice* rapilog,
                       const std::string& where);

  // --trace (RunOptions::trace) prints applied events and recovery outcomes
  // with their virtual timestamps. Printing never affects the episode.
  void Trace(const char* fmt, ...) const;

  Simulator& sim_;
  const EpisodeConfig& cfg_;
  const RunOptions& run_;
  EpisodeOutcome& out_;

 private:
  Task<void> CountCheckFailures(Task<void> client);
  Task<void> RecoveryTask(int target, std::string what, Task<void> recover);

  rlwork::ClientDriver clients_;
  int next_client_id_ = 0;
  std::set<int> recovering_;
  rlsim::WaitQueue rec_done_;
};

void Episode::Trace(const char* fmt, ...) const {
  if (!run_.trace) {
    return;
  }
  std::fprintf(stderr, "[chaos %10lld us] ",
               static_cast<long long>(
                   (sim_.now() - TimePoint::Origin()).nanos() / 1000));
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

// Under data-disk fault injection a torn in-place page can trip a
// page-validity RL_CHECK on a live fetch; the engine's response to media
// corruption is fail-stop, so a CheckFailure ends the client like a machine
// death (which the driver counts) — the post-recovery oracles (journal
// replay repairs the page) are the arbiters of whether data actually
// survived.
Task<void> Episode::CountCheckFailures(Task<void> client) {
  try {
    co_await std::move(client);
  } catch (const rlsim::CheckFailure&) {
    ++out_.check_failures;
  }
}

void Episode::SpawnClients() {
  clients_.Spawn(4, Clients(), next_client_id_, [this](Task<void> client) {
    return CountCheckFailures(std::move(client));
  });
  next_client_id_ += 4;
}

void Episode::SpawnRecovery(int target, std::string what,
                            Task<void> recover) {
  sim_.Spawn(RecoveryTask(target, std::move(what), std::move(recover)),
             "chaos-recovery");
}

Task<void> Episode::RecoveryTask(int target, std::string what,
                                 Task<void> recover) {
  recovering_.insert(target);
  bool ok = false;
  try {
    co_await std::move(recover);
    ok = true;
  } catch (...) {
    // A fault landed on the recovery itself (mid-recovery cut, disk fault
    // during the journal replay). A later recover event — or the wind-down —
    // retries.
  }
  Trace("%s recovery %s", what.c_str(), ok ? "succeeded" : "failed");
  sim_.EmitTrace("chaos", what + (ok ? "-recovery-ok" : "-recovery-failed"),
                 0);
  if (ok) {
    ++out_.recoveries;
    co_await AfterRecovery(what);
  }
  recovering_.erase(target);
  rec_done_.NotifyAll();
}

Task<bool> Episode::RecoverWithRetry(std::string what,
                                     std::function<bool()> up,
                                     std::function<Task<void>()> attempt) {
  for (int i = 0; i < 5 && !up(); ++i) {
    try {
      co_await attempt();
    } catch (...) {
      // Retried after the settle delay (co_await is illegal in a handler).
    }
    if (!up()) {
      co_await sim_.Sleep(Duration::Millis(200));
    }
  }
  if (!up()) {
    out_.violations.push_back("final recovery of " + what +
                              " failed after 5 attempts");
    co_return false;
  }
  co_return true;
}

void Episode::Absorb(const rlfault::VerifyResult& v, const std::string& when) {
  out_.keys_checked += v.keys_checked;
  out_.lost_writes += v.lost_writes;
  out_.atomicity_violations += v.atomicity_violations;
  out_.promoted_pending += v.promoted_pending;
  if (!v.ok()) {
    out_.violations.push_back(when + ": " + v.Summary());
  }
}

Task<void> Episode::CheckTree(rldb::Database& db, std::string where) {
  try {
    co_await db.CheckTreeStructure();
  } catch (const rlsim::CheckFailure& e) {
    out_.violations.push_back(where + ": tree invariant: " + e.what());
  } catch (...) {
    // Died mid-walk: inconclusive.
  }
}

void Episode::CheckPowerGuard(const rapilog::RapiLogDevice* rapilog,
                              const std::string& where) {
  if (rapilog != nullptr && cfg_.power_guard && rapilog->lost_data()) {
    out_.violations.push_back(where +
                              "rapilog lost buffered data despite guard");
  }
}

Task<void> Episode::Main() {
  try {
    co_await Start();
  } catch (...) {
    out_.violations.push_back("startup failed before any fault");
    co_return;
  }
  SpawnClients();

  // Event times are relative to workload start (now), inside [0, run_us].
  const TimePoint start = sim_.now();
  for (const FaultEvent& e : cfg_.events) {
    const TimePoint due = start + Duration::Micros(e.at_us);
    if (due > sim_.now()) {
      co_await sim_.Sleep(due - sim_.now());
    }
    Trace("event %s arg=%u (%s)", ToString(e.kind).c_str(), e.arg,
          State().c_str());
    sim_.EmitTrace("chaos", ToString(e.kind), e.arg);
    Apply(e);
  }
  const TimePoint horizon = start + Duration::Micros(cfg_.run_us);
  if (horizon > sim_.now()) {
    co_await sim_.Sleep(horizon - sim_.now());
  }

  // Wind down: stop the current fleet, let any in-flight recovery finish
  // (a classic one may start one more fleet — stop that one too).
  StopClients();
  while (!recovering_.empty()) {
    co_await rec_done_.Wait();
  }
  StopClients();
  Trace("wind-down (%s)", State().c_str());
  sim_.EmitTrace("chaos", "wind-down", 0);
  if (!co_await RecoverAll()) {
    co_return;
  }
  ++out_.recoveries;
  co_await FinalOracles();
}

// One Testbed under a KV workload: power cuts, guest crashes, disk faults and
// replica faults. The durability oracle runs after every recovery, and the
// wind-down adds the replication audit and the recovery-equivalence probe.
class ClassicEpisode : public Episode {
 public:
  ClassicEpisode(Simulator& sim, const EpisodeConfig& cfg,
                 const RunOptions& run, EpisodeOutcome& out)
      : Episode(sim, cfg, run, out, checker_),
        bed_(sim, BedOptions(cfg)),
        kv_(sim, KvOptions()) {}

 private:
  static constexpr int kMachine = 0;

  static TestbedOptions BedOptions(const EpisodeConfig& cfg) {
    TestbedOptions opts = ChaosTestbedOptions(cfg);
    if (cfg.replicas > 0) {
      opts.replication.enabled = true;
      opts.replication.replicas = cfg.replicas;
      opts.replication.ship_mode = cfg.ship_mode;
    }
    return opts;
  }

  static rlwork::KvConfig KvOptions() {
    rlwork::KvConfig kv;
    kv.key_space = 1000;
    kv.write_fraction = 0.6;
    return kv;
  }

  Task<void> Start() override {
    co_await bed_.Start();
    co_await kv_.Load(bed_.db(), 300);
  }

  rlwork::ClientDriver::NewClient Clients() override {
    return kv_.Clients(bed_.db());
  }

  // Durability oracle against the recovered store, then the B-tree walk.
  // Runs after EVERY successful recovery (not just the final one) so
  // in-flight commits are resolved against the store that actually
  // recovered them.
  Task<void> Verify(std::string when) {
    if (!bed_.db_open()) {
      co_return;
    }
    bool verified = false;
    try {
      Absorb(co_await checker_.VerifyAfterRecovery(bed_.db()), when);
      verified = true;
    } catch (...) {
      // The machine died again mid-verification — inconclusive, not a
      // verdict. A later recovery re-checks the (partially resolved) model.
    }
    if (verified) {
      co_await CheckTree(bed_.db(), when);
    }
  }

  // A restored machine is verified, then gets a fresh client fleet.
  Task<void> AfterRecovery(std::string what) override {
    co_await Verify("after " + what + " recovery");
    SpawnClients();
  }

  std::string State() const override {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "mains=%d db_open=%d recovering=%d",
                  bed_.psu().mains_on() ? 1 : 0, bed_.db_open() ? 1 : 0,
                  Recovering(kMachine) ? 1 : 0);
    return buf;
  }

  void Apply(const FaultEvent& e) override {
    Testbed& bed = bed_;
    const bool replica_ok = e.arg < bed.replica_count();
    switch (e.kind) {
      case FaultKind::kPowerCut:
        if (bed.psu().mains_on()) {
          bed.CutPower();
          StopClients();
        }
        break;
      case FaultKind::kPowerRestore:
        // Also fires as a retry when a previous recovery died with mains up.
        if (!Recovering(kMachine) && !bed.up()) {
          StopClients();
          SpawnRecovery(kMachine, "power", bed.RestorePowerAndRecover());
        }
        break;
      case FaultKind::kGuestCrash:
        if (bed.vm() != nullptr && bed.vm()->running() &&
            !Recovering(kMachine)) {
          bed.CrashGuest();
          StopClients();
        }
        break;
      case FaultKind::kGuestRecover:
        if (bed.vm() != nullptr && !bed.vm()->running() &&
            bed.psu().mains_on() && !Recovering(kMachine)) {
          StopClients();
          SpawnRecovery(kMachine, "guest", bed.RecoverAfterGuestCrash());
        }
        break;
      case FaultKind::kLogDiskFault:
        bed.InjectLogDiskWriteFaults(e.arg);
        break;
      case FaultKind::kDataDiskFault:
        bed.InjectDataDiskWriteFaults(e.arg);
        break;
      case FaultKind::kPartitionReplica:
        if (replica_ok) {
          bed.PartitionReplica(e.arg);
        }
        break;
      case FaultKind::kHealReplica:
        if (replica_ok) {
          bed.HealReplica(e.arg);
        }
        break;
      case FaultKind::kKillReplica:
        if (replica_ok) {
          bed.KillReplica(e.arg);
        }
        break;
      case FaultKind::kReviveReplica:
        if (replica_ok) {
          bed.ReviveReplica(e.arg);
        }
        break;
      case FaultKind::kLinkDegrade:
        if (replica_ok) {
          bed.SetReplicaLinkLoss(e.arg, 0.2);
        }
        break;
      case FaultKind::kLinkRestore:
        if (replica_ok) {
          bed.SetReplicaLinkLoss(e.arg, 0.0);
        }
        break;
      default:
        break;  // fleet kinds have no single-testbed meaning
    }
  }

  Task<bool> RecoverAll() override {
    // Every episode ends with the paper's plug-pull. If the schedule already
    // left the mains out, the episode's own cut stands.
    if (bed_.psu().mains_on()) {
      bed_.CutPower();
    }
    // Frames already on the wire drain into the replicas; devices settle.
    co_await sim_.Sleep(Duration::Seconds(1));

    // Freeze the crash state for the recovery-equivalence oracle before the
    // testbed's own recovery (checkpoints, meta flips) mutates the images:
    // the engine's data and log windows of the physical disks.
    const rlstor::DiskImage& data = bed_.data_disk().image();
    const uint64_t data_sectors = data.sector_count() - bed_.data_first_lba();
    data_window_.emplace(data_sectors)
        .CopyDurableWindow(data, bed_.data_first_lba(), data_sectors);
    log_window_.emplace(bed_.log_sector_count())
        .CopyDurableWindow(bed_.log_disk_physical().image(), 0,
                           bed_.log_sector_count());

    for (size_t r = 0; r < bed_.replica_count(); ++r) {
      bed_.ReviveReplica(r);
    }
    // Replication oracle, against the quorum cursor frozen at the cut.
    if (bed_.replica_count() > 0) {
      std::vector<const rlrep::ReplicaNode*> replicas;
      for (size_t r = 0; r < bed_.replica_count(); ++r) {
        replicas.push_back(&bed_.replica(r));
      }
      const rlfault::QuorumAudit audit =
          rlfault::AuditQuorumDurability(*bed_.shipper(), replicas);
      out_.audit_sectors_expected = audit.sectors_expected;
      out_.audit_sectors_underreplicated = audit.sectors_underreplicated;
      if (!audit.ok()) {
        out_.violations.push_back("replication: " + audit.Summary());
      }
    }

    co_return co_await RecoverWithRetry(
        "the testbed", [this] { return bed_.up(); },
        [this] {
          return cfg_.restore_from_replica
                     ? bed_.RestorePowerAndRecoverFromReplica()
                     : bed_.RestorePowerAndRecover();
        });
  }

  Task<void> FinalOracles() override {
    co_await Verify("final");

    // Recovery-time oracle: recover the frozen crash state on throwaway
    // device clones with one redo stream and with the bed's stream count;
    // the contents, in-doubt set, and replay-work counters must be
    // identical, and both recoveries must land inside the virtual-time
    // budget.
    try {
      const rlfault::RecoveryEquivalence eq =
          co_await rlfault::CheckRecoveryEquivalence(
              sim_, *data_window_, *log_window_, bed_.options().db);
      ++out_.recovery_equiv_checks;
      if (!eq.equivalent()) {
        ++out_.recovery_equiv_mismatches;
        out_.violations.push_back("recovery equivalence: " + eq.Summary());
      }
      if (!eq.within_budget(kRecoveryBudget)) {
        out_.violations.push_back("recovery budget exceeded: " +
                                  eq.Summary());
      }
      Trace("recovery-equivalence %s", eq.Summary().c_str());
    } catch (...) {
      out_.violations.push_back(
          "recovery-equivalence probe died on the crash images");
    }
    CheckPowerGuard(bed_.rapilog(), "");
  }

  Testbed bed_;
  rlwork::KvWorkload kv_;
  rlfault::DurabilityChecker checker_;
  std::optional<rlstor::DiskImage> data_window_;
  std::optional<rlstor::DiskImage> log_window_;
};

// Fleet (E13) episodes: cfg.fleet_shards shard testbeds behind a 2PC
// coordinator, cross-shard load at cfg.cross_ratio, and fault kinds that
// kill coordinators and shards across the protocol's message boundaries.
// The oracle is 2PC atomicity itself: after the wind-down heals and recovers
// the whole fleet, no transaction may be committed on a strict subset of
// its shards, and every acked commit must be fully present.
class FleetEpisode : public Episode {
 public:
  FleetEpisode(Simulator& sim, const EpisodeConfig& cfg,
               const RunOptions& run, EpisodeOutcome& out)
      : Episode(sim, cfg, run, out, checker_),
        fleet_(sim, ShardedOptions(cfg)),
        work_(sim, WorkloadOptions(cfg)) {}

 private:
  // Recovery targets: shard i is target i.
  static constexpr int kCoordinator = -1;

  static rlharness::FleetOptions ShardedOptions(const EpisodeConfig& cfg) {
    rlharness::FleetOptions opts;
    opts.shards = cfg.fleet_shards;
    opts.shard = ChaosTestbedOptions(cfg);
    return opts;
  }

  static rlwork::FleetConfig WorkloadOptions(const EpisodeConfig& cfg) {
    rlwork::FleetConfig w;
    w.cross_shard_probability = cfg.cross_ratio;
    w.ops_per_txn = 3;
    return w;
  }

  Task<void> Start() override { co_await fleet_.Start(); }

  // Clients never touch a shard engine directly — everything goes through
  // the coordinator — so a client outlives shard deaths.
  rlwork::ClientDriver::NewClient Clients() override {
    return work_.Clients(fleet_.coordinator(), fleet_.directory());
  }

  // "coordinator=up shards=on,off+rec": each shard's mains, and whether a
  // recovery of it is in flight.
  std::string State() const override {
    std::string state = fleet_.coordinator_alive() ? "coordinator=up"
                                                   : "coordinator=down";
    if (Recovering(kCoordinator)) {
      state += "+rec";
    }
    state += " shards=";
    for (size_t i = 0; i < fleet_.shard_count(); ++i) {
      state += i == 0 ? "" : ",";
      state += fleet_.shard_powered(i) ? "on" : "off";
      if (Recovering(static_cast<int>(i))) {
        state += "+rec";
      }
    }
    return state;
  }

  void Apply(const FaultEvent& e) override {
    const size_t shard = e.arg % fleet_.shard_count();
    switch (e.kind) {
      case FaultKind::kKillShard:
        fleet_.KillShard(shard);
        break;
      case FaultKind::kRecoverShard: {
        const int target = static_cast<int>(shard);
        if (!fleet_.shard_powered(shard) && !Recovering(target)) {
          SpawnRecovery(target, "shard-" + std::to_string(shard),
                        fleet_.RecoverShard(shard));
        }
        break;
      }
      case FaultKind::kPartitionShard:
        fleet_.PartitionShard(shard);
        break;
      case FaultKind::kHealShard:
        fleet_.HealShard(shard);
        break;
      case FaultKind::kKillCoordinator:
        fleet_.KillCoordinator();
        break;
      case FaultKind::kRecoverCoordinator:
        if (!fleet_.coordinator_alive() && !Recovering(kCoordinator)) {
          SpawnRecovery(kCoordinator, "coordinator",
                        fleet_.RecoverCoordinator());
        }
        break;
      default:
        break;  // classic kinds have no fleet meaning
    }
  }

  // Heals every partition, then brings the coordinator and each shard back.
  Task<bool> RecoverAll() override {
    for (size_t i = 0; i < fleet_.shard_count(); ++i) {
      fleet_.HealShard(i);
    }
    if (!co_await RecoverWithRetry(
            "the coordinator", [this] { return fleet_.coordinator_alive(); },
            [this] { return fleet_.RecoverCoordinator(); })) {
      co_return false;
    }
    for (size_t i = 0; i < fleet_.shard_count(); ++i) {
      Testbed& bed = fleet_.shard(i);
      if (!co_await RecoverWithRetry(
              "shard " + std::to_string(i), [&bed] { return bed.up(); },
              [&bed] { return bed.RestorePowerAndRecover(); })) {
        co_return false;
      }
    }
    co_return true;
  }

  Task<void> FinalOracles() override {
    // Drain every in-doubt transaction through the resolver/query protocol
    // before judging: a leftover prepared txn is not a verdict, it is an
    // unfinished conversation with the coordinator.
    if (!co_await fleet_.ResolveAllInDoubt(Duration::Seconds(30))) {
      out_.violations.push_back("in-doubt transactions failed to drain");
    }
    std::vector<rldb::Database*> dbs;
    for (size_t i = 0; i < fleet_.shard_count(); ++i) {
      dbs.push_back(fleet_.shard_db(i));
    }
    try {
      const rlfault::VerifyResult v =
          co_await checker_.VerifyAfterRecovery(fleet_.directory(), dbs);
      Absorb(v, "fleet oracle");
      // Fleet tokens are the global ids the 2PC spans carry as their arg,
      // which is what the causal post-mortem looks them up by.
      out_.violating_gids = v.violating_tokens;
    } catch (const rlsim::CheckFailure& e) {
      out_.violations.push_back(std::string("fleet verify died: ") +
                                e.what());
    }
    for (size_t i = 0; i < fleet_.shard_count(); ++i) {
      const std::string shard = "shard " + std::to_string(i);
      co_await CheckTree(*dbs[i], shard);
      CheckPowerGuard(fleet_.shard(i).rapilog(), shard + ": ");
    }
    CheckPowerGuard(&fleet_.coordinator_rapilog(), "coordinator: ");
    co_await fleet_.Shutdown();
  }

  FleetTestbed fleet_;
  rlwork::FleetWorkload work_;
  rlfault::FleetChecker checker_;
};

}  // namespace

uint64_t EpisodeOutcome::Hash() const {
  rlsim::Fnv1a h;
  for (const uint64_t v :
       {committed, machine_deaths, check_failures, recoveries, keys_checked,
        lost_writes, atomicity_violations, promoted_pending,
        audit_sectors_expected, audit_sectors_underreplicated,
        fleet_cross_committed, fleet_unknown_outcomes, recovery_equiv_checks,
        recovery_equiv_mismatches, static_cast<uint64_t>(end_time_ns),
        uint64_t{violations.size()}}) {
    h.MixU64(v);
  }
  return h.value();
}

std::string EpisodeOutcome::Summary() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "committed=%llu deaths=%llu recoveries=%llu checked=%llu lost=%llu "
      "atomicity=%llu promoted=%llu violations=%zu hash=%016llx",
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(machine_deaths + check_failures),
      static_cast<unsigned long long>(recoveries),
      static_cast<unsigned long long>(keys_checked),
      static_cast<unsigned long long>(lost_writes),
      static_cast<unsigned long long>(atomicity_violations),
      static_cast<unsigned long long>(promoted_pending), violations.size(),
      static_cast<unsigned long long>(Hash()));
  return buf;
}

EpisodeOutcome RunEpisode(const EpisodeConfig& cfg, const RunOptions& run) {
  EpisodeOutcome out;
  Simulator sim(cfg.seed);
  // Every episode flies with a tracer armed: the caller's, or an
  // episode-local one (so jobs>1 campaigns stay data-race-free) that keeps
  // only what the post-mortem reads. Purely passive — the simulation is
  // bit-identical with or without it.
  rlobs::SpanTracer local(kPostMortemRecords);
  rlobs::SpanTracer& tracer = run.sink != nullptr ? *run.sink : local;
  const uint64_t since = tracer.total_records();
  sim.set_tracer(&tracer);

  std::unique_ptr<Episode> episode;
  if (cfg.fleet_shards > 0) {
    episode = std::make_unique<FleetEpisode>(sim, cfg, run, out);
  } else {
    episode = std::make_unique<ClassicEpisode>(sim, cfg, run, out);
  }
  sim.Spawn(episode->Main(), "chaos-episode");
  sim.Run();

  episode->Tally();
  out.end_time_ns = (sim.now() - TimePoint::Origin()).nanos();
  sim.set_tracer(nullptr);
  if (!out.violations.empty()) {
    out.flight_dump = rlobs::DumpRecords(tracer, kPostMortemRecords, since);
    // Causal post-mortem: for each transaction the oracle convicted, dump
    // the span trees that carried its global id — the conversation the last
    // records still hold for the transaction that broke the guarantee.
    for (const uint64_t gid : out.violating_gids) {
      out.causal_chain += rlobs::DumpCausalChain(
          tracer, static_cast<int64_t>(gid), kPostMortemRecords, since);
    }
  }
  return out;
}

rlharness::DivergenceReport AuditEpisodeDivergence(const EpisodeConfig& cfg,
                                                   int jobs) {
  const rlharness::DivergenceAuditor auditor;
  return auditor.RunTwice(
      [&cfg](rlobs::SpanTracer& tracer) {
        RunOptions run;
        run.sink = &tracer;
        RunEpisode(cfg, run);
      },
      jobs);
}

ShrinkResult Shrink(const EpisodeConfig& failing) {
  ShrinkResult res;
  res.minimal = failing;
  res.outcome = RunEpisode(failing);
  res.replays_used = 1;
  if (res.outcome.ok()) {
    return res;  // not actually failing; nothing to shrink
  }

  // "Still failing" = any oracle violation, not necessarily the same string:
  // the minimal schedule for the underlying defect is what we are after.
  const auto still_fails = [&res](const EpisodeConfig& cand,
                                  EpisodeOutcome* out) {
    if (res.replays_used >= kShrinkBudget) {
      return false;
    }
    ++res.replays_used;
    *out = RunEpisode(cand);
    return !out->ok();
  };

  // Pass 1: ddmin over the event list.
  size_t chunk = std::max<size_t>(1, res.minimal.events.size() / 2);
  while (res.replays_used < kShrinkBudget) {
    bool removed_any = false;
    for (size_t begin = 0; begin < res.minimal.events.size() &&
                           res.replays_used < kShrinkBudget;) {
      EpisodeConfig cand = res.minimal;
      const size_t end = std::min(begin + chunk, cand.events.size());
      cand.events.erase(cand.events.begin() + static_cast<long>(begin),
                        cand.events.begin() + static_cast<long>(end));
      EpisodeOutcome out;
      if (still_fails(cand, &out)) {
        res.minimal = std::move(cand);
        res.outcome = std::move(out);
        removed_any = true;  // same begin: the next chunk shifted into place
      } else {
        begin += chunk;
      }
    }
    if (!removed_any) {
      if (chunk == 1) {
        break;
      }
      chunk /= 2;
    }
  }

  // Pass 2: coarsen each surviving timestamp to the roundest grain that
  // still fails, so the minimal schedule reads in human units.
  for (const int64_t grain : {int64_t{100'000}, int64_t{10'000},
                              int64_t{1'000}}) {
    for (size_t i = 0; i < res.minimal.events.size() &&
                       res.replays_used < kShrinkBudget;
         ++i) {
      const int64_t rounded = res.minimal.events[i].at_us / grain * grain;
      if (rounded == res.minimal.events[i].at_us || rounded <= 0) {
        continue;
      }
      EpisodeConfig cand = res.minimal;
      cand.events[i].at_us = rounded;
      SortEvents(&cand.events);
      EpisodeOutcome out;
      if (still_fails(cand, &out)) {
        res.minimal = std::move(cand);
        res.outcome = std::move(out);
      }
    }
  }
  return res;
}

ExplorerReport ChaosExplorer::RunCampaign() {
  // Tracing prints to stderr and a sink records one simulator's stream;
  // both only make sense observing a single episode at a time.
  const int jobs =
      (options_.run.trace || options_.run.sink != nullptr) ? 1 : options_.jobs;

  // Phase 1: every episode, fanned out. Each job builds its own Simulator
  // and Testbed from its config; nothing is shared across jobs.
  const size_t n = static_cast<size_t>(options_.episodes);
  std::vector<EpisodeConfig> cfgs(n);
  for (size_t i = 0; i < n; ++i) {
    cfgs[i] = GenerateEpisode(options_.base_seed + i, options_.gen);
  }
  const std::vector<EpisodeOutcome> outcomes =
      rlharness::RunJobs<EpisodeOutcome>(jobs, n, [this, &cfgs](size_t i) {
        return RunEpisode(cfgs[i], options_.run);
      });

  // Index-ordered reduction: the corpus hash chains episode hashes in seed
  // order and failures are collected in seed order, independent of which
  // worker finished first.
  ExplorerReport report;
  rlsim::Fnv1a corpus;
  std::vector<size_t> failing;
  for (size_t i = 0; i < n; ++i) {
    ++report.episodes_run;
    corpus.MixU64(outcomes[i].Hash());
    if (!outcomes[i].ok()) {
      ++report.violations;
      failing.push_back(i);
    }
  }
  report.corpus_hash = corpus.value();

  // Phase 2: shrink the failures (independent of each other, so they fan
  // out too; each Shrink replays sequentially and deterministically).
  std::vector<ShrinkResult> shrunk;
  if (options_.shrink) {
    shrunk = rlharness::RunJobs<ShrinkResult>(
        jobs, failing.size(), [this, &cfgs, &failing](size_t k) {
          return Shrink(cfgs[failing[k]]);
        });
  }
  for (size_t k = 0; k < failing.size(); ++k) {
    ShrunkFailure failure;
    failure.original = cfgs[failing[k]];
    if (options_.shrink) {
      failure.shrunk = std::move(shrunk[k]);
    } else {
      failure.shrunk.minimal = cfgs[failing[k]];
      failure.shrunk.outcome = outcomes[failing[k]];
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

}  // namespace rlchaos
