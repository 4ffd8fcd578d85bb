// Property test for the redo path: for a sweep of seeded
// workload/crash mixes — commits, aborts, deletes, prepared-in-doubt 2PC
// txns, mid-run checkpoints, torn log tails — recovery with K redo streams
// (K in {1,2,4,8}) must produce exactly the same committed contents,
// in-doubt set, and replay-work accounting at every K. The pre-crash phase
// is a pure function of the seed, so each (seed, K) re-run crashes on
// bit-identical disk images and only the recovery path differs. The content
// reference is independent of the redo path: a DurabilityChecker records
// every client's commits and must accept each recovered state.
//
// Also the regression home for the journal-header fix: recovery reads the
// header page exactly once, shared by the replay decision, the embedded
// metadata, and the fuzzy horizons.
#include "src/db/database.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "src/db/errors.h"
#include "src/faults/durability_checker.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

constexpr uint64_t kKeySpace = 400;

// Everything recovery must reproduce identically at any partition count.
struct Fingerprint {
  uint64_t content_hash = 0;
  uint64_t committed_count = 0;
  std::vector<uint64_t> in_doubt;
  int64_t recovered_records = 0;
  int64_t redo_skipped_by_horizon = 0;
  int64_t in_doubt_recovered = 0;
  uint64_t keys_checked = 0;      // DurabilityChecker verdict
  uint64_t promoted_pending = 0;

  bool operator==(const Fingerprint&) const = default;
};

std::vector<uint8_t> MakeValue(const EngineProfile& profile, uint64_t seed) {
  std::vector<uint8_t> v(profile.value_bytes);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(seed * 131 + i * 7);
  }
  return v;
}

// A commit attempt, ack or abort as a client saw it (token = txn id). The
// events are handed to the DurabilityChecker in order once the crash image
// is final.
struct CommitEvent {
  enum Kind { kAttempt, kAck, kAbort };
  Kind kind = kAttempt;
  uint64_t token = 0;
  std::vector<rlfault::TrackedWrite> writes;  // kAttempt only
};

// One client streaming randomized transactions until the plug is pulled,
// logging each commit to `events`. Lock timeouts abort the transaction
// inside Put/Remove; EngineHalted is the machine dying under us — both are
// normal ends here.
Task<void> Workload(Simulator& sim, Database& db, uint64_t seed,
                    const bool* stop, std::vector<CommitEvent>& events) {
  rlsim::Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  const EngineProfile& profile = db.options().profile;
  int prepares_left = (seed % 3 == 0) ? 2 : 0;
  try {
    while (!*stop) {
      const uint64_t txn = db.Begin();
      const int ops = 1 + static_cast<int>(rng.Next() % 5);
      std::vector<rlfault::TrackedWrite> writes;
      bool dead = false;
      for (int o = 0; o < ops && !dead; ++o) {
        rlfault::TrackedWrite w{.key = rng.Next() % kKeySpace,
                                .is_delete = rng.Next() % 8 == 0,
                                .value = {}};
        if (!w.is_delete) {
          w.value = MakeValue(profile, rng.Next());
        }
        const DbStatus st = w.is_delete ? co_await db.Remove(txn, w.key)
                                        : co_await db.Put(txn, w.key, w.value);
        dead = st == DbStatus::kLockTimeout;
        // The checker wants the txn's net effect: the last write per key.
        std::erase_if(writes, [&](const rlfault::TrackedWrite& prev) {
          return prev.key == w.key;
        });
        writes.push_back(std::move(w));
      }
      if (dead) {
        continue;  // the engine already aborted the txn
      }
      if (rng.Next() % 10 == 0) {
        co_await db.Abort(txn);
        continue;
      }
      if (prepares_left > 0 && rng.Next() % 4 == 0) {
        --prepares_left;
        // Left in doubt on purpose: pins the replay point far back, which
        // is exactly the state the fuzzy per-slice horizons pay off in.
        co_await db.Prepare(txn, /*global_id=*/1000 + rng.Next() % 1000);
        continue;
      }
      events.push_back({CommitEvent::kAttempt, txn, std::move(writes)});
      const bool acked = co_await db.Commit(txn) == DbStatus::kOk;
      events.push_back(
          {acked ? CommitEvent::kAck : CommitEvent::kAbort, txn, {}});
      if (rng.Next() % 25 == 0) {
        co_await db.Checkpoint();
      }
      co_await sim.Sleep(Duration::Micros(rng.Next() % 200));
    }
  } catch (const EngineHalted&) {
  }
}

// Txn ids whose commit record lies in the valid prefix of the log.
std::set<uint64_t> CommitsInLog(Simulator& sim, SimBlockDevice& log,
                                const EngineProfile& profile) {
  std::set<uint64_t> ids;
  sim.Spawn([](SimBlockDevice& l, const EngineProfile& p,
               std::set<uint64_t>& out) -> Task<void> {
    for (const LogRecord& rec : (co_await ScanLog(l, p, 0)).records) {
      if (rec.type == LogRecordType::kCommit) {
        out.insert(rec.txn_id);
      }
    }
  }(log, profile, ids));
  sim.Run();
  return ids;
}

// Runs the seeded workload, pulls the plug at a seed-derived instant,
// optionally tears the newest durable log sector, then recovers with the
// given redo stream count, requires the durability checker's verdict to be
// ok, and fingerprints the result.
Fingerprint RunScenario(uint64_t seed, uint32_t partitions) {
  Simulator sim(seed);
  NativeCpu cpu(sim);
  SimBlockDevice data(sim,
                      SimBlockDevice::Options{.geometry = {.sector_count =
                                                               1 << 18},
                                              .cache_policy =
                                                  WriteCachePolicy::kWriteBack,
                                              .name = "data"},
                      rlstor::MakeDefaultSsd());
  SimBlockDevice log(sim,
                     SimBlockDevice::Options{.geometry = {.sector_count =
                                                              1 << 18},
                                             .cache_policy =
                                                 WriteCachePolicy::kWriteBack,
                                             .name = "log"},
                     rlstor::MakeDefaultSsd());
  DbOptions options;
  options.profile = PostgresLikeProfile();
  options.profile.checkpoint_dirty_pages = 64;
  options.pool_pages = 256;
  options.journal_pages = 200;

  std::unique_ptr<Database> db;
  bool stop = false;
  std::vector<CommitEvent> events;
  sim.Spawn([](Simulator& s, NativeCpu& c, SimBlockDevice& d,
               SimBlockDevice& l, DbOptions opt, std::unique_ptr<Database>& out,
               uint64_t sd, const bool* st,
               std::vector<CommitEvent>& ev) -> Task<void> {
    out = co_await Database::Open(s, c, d, l, opt);
    for (int w = 0; w < 3; ++w) {
      s.Spawn(Workload(s, *out, sd * 7 + w, st, ev), "equiv-client");
    }
  }(sim, cpu, data, log, options, db, seed, &stop, events));

  // Crash instant varies with the seed so the sweep hits fresh-format,
  // mid-checkpoint, and long-log states alike.
  sim.RunFor(Duration::Millis(20 + seed % 60));
  data.PowerLoss();
  log.PowerLoss();
  stop = true;
  sim.Run();  // drain: clients unwind with EngineHalted

  // Tear down the dead engine.
  sim.Spawn([](std::unique_ptr<Database>& d) -> Task<void> {
    co_await d->Close();
    d.reset();
  }(db));
  sim.Run();
  data.PowerRestore();
  log.PowerRestore();

  // Torn tail for a third of the seeds: scribble the newest durable log
  // sector. ScanLog must salvage the valid prefix identically at every K.
  // The scribble is media damage beyond the sector-atomic torn-write model:
  // it can destroy commit records that were already acknowledged. The
  // checker is told those commits were never acknowledged, so it still
  // demands that they be all-or-nothing and that every other ack survive.
  std::set<uint64_t> destroyed;
  if (seed % 3 == 1) {
    const auto durable = log.image().DurableSectorList();
    if (!durable.empty()) {
      destroyed = CommitsInLog(sim, log, options.profile);
      std::vector<uint8_t> junk(rlstor::kSectorSize);
      for (size_t i = 0; i < junk.size(); ++i) {
        junk[i] = static_cast<uint8_t>(seed + i * 13);
      }
      log.image().WriteDurable(durable.back(), junk);
      for (const uint64_t id : CommitsInLog(sim, log, options.profile)) {
        destroyed.erase(id);
      }
    }
  }
  rlfault::DurabilityChecker checker;
  for (CommitEvent& e : events) {
    if (e.kind == CommitEvent::kAttempt) {
      checker.OnCommitAttempt(e.token, std::move(e.writes));
    } else if (e.kind == CommitEvent::kAbort) {
      checker.OnAborted(e.token);
    } else if (!destroyed.contains(e.token)) {
      checker.OnCommitAcked(e.token);
    }
  }

  // Recover with the requested stream count.
  DbOptions recover_options = options;
  recover_options.recovery.partitions = partitions;
  Fingerprint fp;
  rlfault::VerifyResult verdict;
  sim.Spawn([](Simulator& s, NativeCpu& c, SimBlockDevice& d,
               SimBlockDevice& l, DbOptions opt,
               rlfault::DurabilityChecker& chk, rlfault::VerifyResult& ver,
               Fingerprint& out) -> Task<void> {
    auto rdb = co_await Database::Open(s, c, d, l, opt);
    out.content_hash = co_await rdb->ContentHash();
    out.committed_count = co_await rdb->CommittedCount();
    out.in_doubt = rdb->InDoubtGlobalIds();
    out.recovered_records = rdb->stats().recovered_records.value();
    out.redo_skipped_by_horizon =
        rdb->stats().redo_skipped_by_horizon.value();
    out.in_doubt_recovered = rdb->stats().in_doubt_recovered.value();
    // The journal-header regression: exactly one header page read per
    // recovery, shared by every consumer.
    EXPECT_EQ(rdb->stats().journal_header_reads.value(), 1);
    co_await rdb->CheckTreeStructure();
    ver = co_await chk.VerifyAfterRecovery(*rdb);
    out.keys_checked = ver.keys_checked;
    out.promoted_pending = ver.promoted_pending;
    co_await rdb->Close();
  }(sim, cpu, data, log, recover_options, checker, verdict, fp));
  sim.Run();
  EXPECT_TRUE(verdict.ok()) << "seed " << seed << " K=" << partitions << ": "
                            << verdict.Summary();
  return fp;
}

TEST(RecoveryEquivalenceTest, PartitionCountNeverChangesTheRecoveredState) {
  constexpr uint64_t kSeeds = 200;
  const uint32_t partition_counts[] = {1, 2, 4, 8};
  uint64_t nonempty = 0;
  uint64_t with_in_doubt = 0;
  uint64_t with_horizon_skips = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Fingerprint base = RunScenario(seed, partition_counts[0]);
    for (size_t k = 1; k < std::size(partition_counts); ++k) {
      const Fingerprint got = RunScenario(seed, partition_counts[k]);
      ASSERT_EQ(base, got)
          << "seed " << seed << ": K=" << partition_counts[k]
          << " diverged from K=1 (hash " << std::hex
          << got.content_hash << " vs " << base.content_hash << ")";
    }
    nonempty += base.committed_count > 0 ? 1 : 0;
    with_in_doubt += base.in_doubt.empty() ? 0 : 1;
    with_horizon_skips += base.redo_skipped_by_horizon > 0 ? 1 : 0;
  }
  // The sweep must actually exercise the interesting states, not vacuously
  // compare empty databases.
  EXPECT_GT(nonempty, kSeeds / 2);
  EXPECT_GT(with_in_doubt, 10u);
  EXPECT_GT(with_horizon_skips, 10u);
}

// Same-state determinism at a fixed K: partitioned recovery is itself a
// pure function of the disk images (prerequisite for the byte-identical
// claim at any worker count).
TEST(RecoveryEquivalenceTest, PartitionedRecoveryIsDeterministic) {
  for (uint64_t seed : {3u, 14u, 59u}) {
    const Fingerprint a = RunScenario(seed, 8);
    const Fingerprint b = RunScenario(seed, 8);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace rldb
