// ChaosExplorer: randomized multi-fault schedules executed end-to-end on the
// Testbed, checked against the durability/consistency oracles, with
// delta-debugging shrinking of failing seeds down to minimal replayable
// schedules (FoundationDB-style simulation testing for this repo).
//
// Each episode is a pure function of its EpisodeConfig: the config seeds the
// simulator, the schedule is fixed up front, and the outcome (including its
// hash) is bit-for-bit reproducible — which is what makes `--replay` and
// shrinking trustworthy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/faults/chaos/schedule.h"
#include "src/harness/divergence_auditor.h"
#include "src/obs/span_tracer.h"

namespace rlchaos {

// Per-run knobs that do NOT belong in the EpisodeConfig (they must not
// change the episode's behaviour, only what is observed about it).
struct RunOptions {
  // Print each applied event and recovery outcome with its virtual
  // timestamp to stderr — the first thing to reach for when a shrunken
  // schedule needs a human explanation. Printing never affects the episode.
  bool trace = false;
  // Optional tracer installed on the episode's simulator (a full trace, or
  // the DivergenceAuditor's run recorder). Null = the episode records into
  // its own tracer bounded at 512 records, for the post-mortem alone.
  rlobs::SpanTracer* sink = nullptr;
};

// Everything observable about one episode, deterministically derived from
// the config. `violations` holds human-readable oracle failures; empty means
// the guarantees held.
struct EpisodeOutcome {
  uint64_t committed = 0;        // workload commits acknowledged
  uint64_t machine_deaths = 0;   // client coroutines unwound by a fault
  uint64_t check_failures = 0;   // clients unwound by a fail-stop invariant
  uint64_t recoveries = 0;       // successful recoveries (incl. the final)
  // Durability-checker accumulation across every verified recovery.
  uint64_t keys_checked = 0;
  uint64_t lost_writes = 0;
  uint64_t atomicity_violations = 0;
  uint64_t promoted_pending = 0;
  // Replication audit (replicated episodes only).
  uint64_t audit_sectors_expected = 0;
  uint64_t audit_sectors_underreplicated = 0;
  // Fleet episodes only (cfg.fleet_shards > 0): cross-shard 2PC traffic and
  // outcomes the atomicity oracle adjudicated. Zero in classic episodes.
  uint64_t fleet_cross_committed = 0;
  uint64_t fleet_unknown_outcomes = 0;  // txns left in doubt by a crash
  // Recovery-equivalence oracle: crash states recovered on device clones
  // under sequential and partitioned redo and compared.
  uint64_t recovery_equiv_checks = 0;
  uint64_t recovery_equiv_mismatches = 0;
  int64_t end_time_ns = 0;  // virtual time consumed by the episode
  std::vector<std::string> violations;
  // Post-mortem: the episode's last 512 trace records ("last N events before
  // death", src/obs/post_mortem.h), filled only when the episode ends with
  // violations. Excluded from Hash() — it is derived observability text, not
  // behaviour.
  std::string flight_dump;
  // Global ids of transactions the fleet atomicity oracle convicted
  // (VerifyResult::violating_tokens), and the causal span chains for them
  // among the same 512 records: which client/coordinator/shard spans the
  // failing transactions passed through. Both are derived observability,
  // excluded from Hash().
  std::vector<uint64_t> violating_gids;
  std::string causal_chain;

  bool ok() const { return violations.empty(); }
  // FNV-1a over every numeric field: two runs of the same config must agree.
  uint64_t Hash() const;
  std::string Summary() const;
};

// Runs one episode to completion on a fresh simulator. Never throws; oracle
// failures and infrastructure breakage land in `violations`. Classic
// episodes run one Testbed; cfg.fleet_shards > 0 runs the fleet (E13)
// topology: that many shard testbeds behind a 2PC coordinator, cross-shard
// workload at cfg.cross_ratio, and the fleet atomicity oracle after the
// wind-down heals and recovers everything.
EpisodeOutcome RunEpisode(const EpisodeConfig& cfg,
                          const RunOptions& run = {});

// Determinism cross-check: executes the episode twice from its seed with a
// trace recorder installed and returns the auditor's verdict — identical
// per-epoch digests, or the first diverging event (see
// src/harness/divergence_auditor.h). jobs >= 2 runs the pair concurrently.
rlharness::DivergenceReport AuditEpisodeDivergence(const EpisodeConfig& cfg,
                                                   int jobs = 1);

struct ShrinkResult {
  EpisodeConfig minimal;
  EpisodeOutcome outcome;  // outcome of `minimal` (still violating)
  int replays_used = 0;
};

// Minimises a failing config: pass 1 is ddmin over the event list (drop
// chunks, halving the chunk size while removals keep the episode failing);
// pass 2 coarsens each surviving timestamp to the roundest grain that still
// fails. Any oracle violation counts as "still failing". At most
// kShrinkBudget episode replays.
inline constexpr int kShrinkBudget = 250;
ShrinkResult Shrink(const EpisodeConfig& failing);

struct ExplorerOptions {
  uint64_t base_seed = 1;
  uint64_t episodes = 10;
  GeneratorOptions gen;
  RunOptions run;
  bool shrink = true;
  // Worker threads for the episode fan-out (src/harness/parallel_runner).
  // Episodes are independent seeded simulations; outcomes are reduced in
  // episode-index order, so the report (hashes, violation order, shrunken
  // schedules) is byte-identical for jobs=1 and jobs=32. Forced to 1 when
  // run.trace or run.sink is set — both observe one episode at a time.
  int jobs = 1;
};

struct ShrunkFailure {
  EpisodeConfig original;
  ShrinkResult shrunk;
};

struct ExplorerReport {
  uint64_t episodes_run = 0;
  uint64_t violations = 0;
  std::vector<ShrunkFailure> failures;
  // FNV-1a chain over every episode's outcome hash: one number that pins the
  // behaviour of the whole corpus.
  uint64_t corpus_hash = 0;

  bool ok() const { return violations == 0; }
};

class ChaosExplorer {
 public:
  explicit ChaosExplorer(ExplorerOptions options) : options_(options) {}

  // Episodes base_seed .. base_seed+episodes-1, fanned across options_.jobs
  // worker threads, outcomes reduced in episode-index order, each failure
  // shrunk deterministically (shrinking itself fans across failures; each
  // shrink is internally sequential and a pure function of its config).
  ExplorerReport RunCampaign();

 private:
  ExplorerOptions options_;
};

}  // namespace rlchaos
