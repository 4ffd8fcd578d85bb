// Recovery-time bounds in virtual time. Two deterministic claims:
//
//  1. Scaling: on a long redo-only WAL (no checkpoint since format), recovery
//     time is nonincreasing in the redo stream count and at least halves
//     from K=1 to K=8 — the redo CPU cost overlaps across worker coroutines
//     while the recovered state stays bit-identical.
//  2. Fuzzy horizons: with an old in-doubt transaction pinning the replay
//     point far behind the last checkpoint, per-slice horizons let recovery
//     skip the already-checkpointed records on every slice the pinned txn
//     never touched, which the global replay point would replay, and it
//     still recovers every committed write.
//
// Everything runs on the simulator's virtual clock, so the measured times
// are exact and the assertions are deterministic, not flaky wall-clock
// thresholds.
#include "src/db/database.h"

#include <gtest/gtest.h>

#include <memory>

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

std::vector<uint8_t> MakeValue(const EngineProfile& profile, uint64_t salt) {
  std::vector<uint8_t> v(profile.value_bytes);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(salt * 131 + i * 7);
  }
  return v;
}

struct RecoveryMeasurement {
  Duration time;  // virtual time spent inside the recovering Open
  uint64_t content_hash = 0;
  uint64_t pre_crash_hash = 0;  // the committed contents the cut found
  int64_t recovered_records = 0;
  int64_t redo_skipped_by_horizon = 0;
  std::vector<uint64_t> in_doubt;
};

enum class CrashState {
  // ~2000 multi-op txns, never checkpointed: the whole WAL replays.
  kLongWal,
  // One early prepared-in-doubt txn pinning the replay point, then a burst
  // of commits, a checkpoint, and a short post-checkpoint tail.
  kPinnedCheckpoint,
};

// Builds the seeded crash state from scratch (pre-crash phase is a pure
// function of `state`, so every recovery mode sees bit-identical images),
// then recovers with the given options and measures the reopen.
RecoveryMeasurement MeasureRecovery(CrashState state, uint32_t partitions) {
  Simulator sim(7);
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
  // High enough that the small key space never trips the dirty-page
  // throttle: the only checkpoints are the ones the scenario issues.
  options.profile.checkpoint_dirty_pages = 128;
  options.pool_pages = 512;
  options.journal_pages = 300;

  DbOptions recover_options = options;
  recover_options.recovery.partitions = partitions;
  RecoveryMeasurement m;
  sim.Spawn([](Simulator& s, NativeCpu& c, SimBlockDevice& d,
               SimBlockDevice& l, DbOptions opt, DbOptions ropt, CrashState st,
               RecoveryMeasurement& out) -> Task<void> {
    auto db = co_await Database::Open(s, c, d, l, opt);
    const EngineProfile& profile = db->options().profile;
    if (st == CrashState::kLongWal) {
      for (uint64_t t = 0; t < 2000; ++t) {
        const uint64_t txn = db->Begin();
        for (uint64_t o = 0; o < 8; ++o) {
          co_await db->Put(txn, (t * 8 + o) % kKeySpace,
                           MakeValue(profile, t * 8 + o));
        }
        co_await db->Commit(txn);
      }
    } else {
      // The pin: prepared, never resolved. Its first_lsn anchors the
      // replay point; only its own slices stay hot in the fuzzy header.
      const uint64_t pin = db->Begin();
      co_await db->Put(pin, 399, MakeValue(profile, 399));
      co_await db->Prepare(pin, /*global_id=*/4242);
      for (uint64_t t = 0; t < 200; ++t) {
        const uint64_t txn = db->Begin();
        for (uint64_t o = 0; o < 4; ++o) {
          co_await db->Put(txn, (t * 4 + o) % 199,
                           MakeValue(profile, t * 4 + o));
        }
        co_await db->Commit(txn);
      }
      co_await db->Checkpoint();
      for (uint64_t t = 0; t < 20; ++t) {
        const uint64_t txn = db->Begin();
        co_await db->Put(txn, t % 199, MakeValue(profile, 5000 + t));
        co_await db->Commit(txn);
      }
    }
    out.pre_crash_hash = co_await db->ContentHash();
    // Mains failure: device caches drop, the dead engine is torn down in
    // the dark, then power returns and the reopen is the measured recovery.
    d.PowerLoss();
    l.PowerLoss();
    co_await db->Close();
    db.reset();
    d.PowerRestore();
    l.PowerRestore();

    const rlsim::TimePoint before = s.now();
    db = co_await Database::Open(s, c, d, l, ropt);
    out.time = s.now() - before;
    out.content_hash = co_await db->ContentHash();
    out.recovered_records = db->stats().recovered_records.value();
    out.redo_skipped_by_horizon =
        db->stats().redo_skipped_by_horizon.value();
    out.in_doubt = db->InDoubtGlobalIds();
    EXPECT_EQ(db->stats().journal_header_reads.value(), 1);
    co_await db->CheckTreeStructure();
    co_await db->Close();
  }(sim, cpu, data, log, options, recover_options, state, m));
  sim.Run();
  return m;
}

TEST(RecoveryTimeBoundTest, PartitionedRedoScalesSubLinearly) {
  const uint32_t ks[] = {1, 2, 4, 8};
  RecoveryMeasurement m[4];
  for (size_t i = 0; i < 4; ++i) {
    m[i] = MeasureRecovery(CrashState::kLongWal, ks[i]);
  }
  // The workload is 2000 txns x 8 updates: the whole WAL is live redo work.
  ASSERT_GE(m[0].recovered_records, 16000);
  for (size_t i = 1; i < 4; ++i) {
    // Identical recovered state at every K...
    EXPECT_EQ(m[i].content_hash, m[0].content_hash) << "K=" << ks[i];
    EXPECT_EQ(m[i].recovered_records, m[0].recovered_records)
        << "K=" << ks[i];
    // ...and never slower than the next-coarser partitioning.
    EXPECT_LE(m[i].time.nanos(), m[i - 1].time.nanos())
        << "K=" << ks[i] << " took " << m[i].time.micros() << "us vs "
        << m[i - 1].time.micros() << "us at K=" << ks[i - 1];
  }
  // The headline bound: 8 streams at least halve one-stream recovery.
  EXPECT_LE(m[3].time.nanos() * 2, m[0].time.nanos())
      << "K=8 " << m[3].time.micros() << "us vs K=1 "
      << m[0].time.micros() << "us";
}

TEST(RecoveryTimeBoundTest, FuzzyHorizonsRetireCheckpointedRecords) {
  const RecoveryMeasurement m =
      MeasureRecovery(CrashState::kPinnedCheckpoint, 4);

  EXPECT_EQ(m.content_hash, m.pre_crash_hash);
  EXPECT_EQ(m.in_doubt, std::vector<uint64_t>{4242});

  // The replay point sits at the pinned txn's first record, so the global
  // horizon would replay every committed record after it: the burst's 800
  // and the tail's 20. Per-slice horizons retire the checkpointed burst on
  // the slices the pinned txn never touched.
  EXPECT_GT(m.redo_skipped_by_horizon, 0);
  EXPECT_EQ(m.recovered_records + m.redo_skipped_by_horizon, 200 * 4 + 20);
}

}  // namespace
}  // namespace rldb
