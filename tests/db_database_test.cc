// End-to-end engine tests: transactions, durability, checkpointing, and
// crash recovery against real simulated devices.
#include "src/db/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/db/buffer_pool.h"
#include "src/db/errors.h"
#include "src/db/layout.h"
#include "src/sim/check.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

// The engine's view of the data disk: forwards every request to the disk
// and records it, so a test can see the order a checkpoint's writes arrive
// in. Writes (or reads) can also be held at a closed gate, or can trigger a
// power cut just before the write recorded at a given request index reaches
// the disk.
class DataDiskProbe : public rlstor::BlockDevice {
 public:
  struct Request {
    uint64_t lba = 0;
    uint64_t sectors = 0;
    bool fua = false;
    bool flush = false;
  };

  DataDiskProbe(Simulator& sim, rlstor::BlockDevice& disk, uint64_t header_lba)
      : disk_(disk), header_lba_(header_lba), gate_(sim) {}

  const rlstor::Geometry& geometry() const override {
    return disk_.geometry();
  }
  Task<BlockStatus> Read(uint64_t lba, std::span<uint8_t> out) override {
    while (read_gate_closed_) {
      co_await gate_.Wait();
    }
    co_return co_await disk_.Read(lba, out);
  }
  Task<BlockStatus> Write(uint64_t lba, std::span<const uint8_t> data,
                          bool fua) override {
    while (gate_closed_) {
      co_await gate_.Wait();
    }
    requests.push_back({lba, data.size() / rlstor::kSectorSize, fua, false});
    if (static_cast<int64_t>(requests.size()) - 1 == cut_at_request) {
      cut_data.assign(data.begin(), data.end());
      cut();
    }
    co_return co_await disk_.Write(lba, data, fua);
  }
  Task<BlockStatus> Flush() override {
    requests.push_back({0, 0, false, true});
    return disk_.Flush();
  }
  bool volatile_write_cache() const override {
    return disk_.volatile_write_cache();
  }

  void CloseGate() { gate_closed_ = true; }
  void OpenGate() {
    gate_closed_ = false;
    gate_.NotifyAll();
  }
  void CloseReadGate() { read_gate_closed_ = true; }
  void OpenReadGate() {
    read_gate_closed_ = false;
    gate_.NotifyAll();
  }

  // LBAs of the in-place phase of the last checkpoint recorded: the writes
  // after the last journal-header write, up to the next flush.
  std::vector<uint64_t> LastInPlacePhase() const {
    size_t i = requests.size();
    while (i > 0 && !IsHeaderWrite(i - 1)) {
      --i;
    }
    std::vector<uint64_t> lbas;
    for (; i > 0 && i < requests.size() && !requests[i].flush; ++i) {
      lbas.push_back(requests[i].lba);
    }
    return lbas;
  }

  // Whether request `i` is the journal header's FUA write, which commits a
  // checkpoint.
  bool IsHeaderWrite(size_t i) const {
    return requests[i].fua && requests[i].lba == header_lba_;
  }

  std::vector<Request> requests;
  // Index in `requests` of the write before which cut() runs; -1 never cuts.
  int64_t cut_at_request = -1;
  std::function<void()> cut;
  std::vector<uint8_t> cut_data;  // what that write carried

 private:
  rlstor::BlockDevice& disk_;
  uint64_t header_lba_;
  bool gate_closed_ = false;
  bool read_gate_closed_ = false;
  rlsim::WaitQueue gate_;
};

struct EngineFixture {
  explicit EngineFixture(EngineProfile profile = PostgresLikeProfile(),
                         DurabilityMode mode = DurabilityMode::kSync)
      : cpu(sim),
        data(sim,
             SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                     .cache_policy =
                                         WriteCachePolicy::kWriteBack,
                                     .name = "data"},
             rlstor::MakeDefaultSsd()),
        log(sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                    .cache_policy =
                                        WriteCachePolicy::kWriteBack,
                                    .name = "log"},
            rlstor::MakeDefaultSsd()),
        probe(sim, data, PageLba(0, profile.page_bytes)) {
    options.profile = profile;
    options.durability = mode;
    options.pool_pages = 1024;
    options.journal_pages = 600;
    options.profile.checkpoint_dirty_pages = 256;
  }

  Task<void> OpenDb() {
    db = co_await Database::Open(sim, cpu, probe, log, options);
  }

  std::vector<uint8_t> Value(uint64_t seed) const {
    std::vector<uint8_t> v(options.profile.value_bytes);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(seed + i * 7);
    }
    return v;
  }

  // Simulates a machine crash: in-memory engine state is discarded and the
  // database is re-opened from the (simulated) disks.
  Task<void> CrashAndReopen() {
    if (db != nullptr) {
      co_await db->Close();
      db.reset();
    }
    co_await OpenDb();
  }

  // Simulates a mains failure: devices lose power (volatile caches dropped),
  // the engine is torn down while everything is dark, then power returns and
  // the database recovers from the disks.
  Task<void> PowerFailAndReopen() {
    data.PowerLoss();
    log.PowerLoss();
    if (db != nullptr) {
      co_await db->Close();
      db.reset();
    }
    data.PowerRestore();
    log.PowerRestore();
    co_await OpenDb();
  }

  Simulator sim;
  NativeCpu cpu;
  SimBlockDevice data;
  SimBlockDevice log;
  DataDiskProbe probe;  // the engine's data disk: `data` behind a recorder
  DbOptions options;
  std::unique_ptr<Database> db;
};

TEST(DatabaseTest, FreshOpenAndBasicCommit) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    EXPECT_EQ(co_await fx.db->Put(txn, 1, fx.Value(1)), DbStatus::kOk);
    EXPECT_EQ(co_await fx.db->Put(txn, 2, fx.Value(2)), DbStatus::kOk);
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(1, &got));
    EXPECT_EQ(got, fx.Value(1));
    EXPECT_EQ(co_await fx.db->CommittedCount(), 2u);
  }(f));
  f.sim.Run();
  EXPECT_EQ(f.db->stats().commits.value(), 1);
}

// Recovery needs at least one redo stream; zero is a configuration error,
// caught when the engine is built rather than at the first recovery.
TEST(DatabaseTest, ZeroRedoStreamsIsANamedCheckFailure) {
  EngineFixture f;
  f.options.recovery.partitions = 0;
  std::string error;
  f.sim.Spawn([](EngineFixture& fx, std::string& out) -> Task<void> {
    try {
      co_await fx.OpenDb();
    } catch (const rlsim::CheckFailure& e) {
      out = e.what();
    }
  }(f, error));
  f.sim.Run();
  EXPECT_NE(error.find("at least one redo stream"), std::string::npos)
      << error;
}

TEST(DatabaseTest, ReadYourOwnWrites) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 5, fx.Value(50));
    std::vector<uint8_t> got;
    EXPECT_EQ(co_await fx.db->Get(txn, 5, &got), DbStatus::kOk);
    EXPECT_EQ(got, fx.Value(50));
    co_await fx.db->Remove(txn, 5);
    EXPECT_EQ(co_await fx.db->Get(txn, 5, &got), DbStatus::kNotFound);
    co_await fx.db->Abort(txn);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, AbortDiscardsWrites) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 9, fx.Value(9));
    co_await fx.db->Abort(txn);
    EXPECT_FALSE(co_await fx.db->ReadCommitted(9, nullptr));
    EXPECT_EQ(fx.db->active_txns(), 0u);
  }(f));
  f.sim.Run();
  EXPECT_EQ(f.db->stats().aborts.value(), 1);
}

TEST(DatabaseTest, UncommittedInvisibleToOthers) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t t1 = fx.db->Begin();
    co_await fx.db->Put(t1, 77, fx.Value(1));
    // Committed state does not include t1's write until commit.
    EXPECT_FALSE(co_await fx.db->ReadCommitted(77, nullptr));
    co_await fx.db->Commit(t1);
    EXPECT_TRUE(co_await fx.db->ReadCommitted(77, nullptr));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, LockConflictTimesOutAndAborts) {
  EngineProfile p = PostgresLikeProfile();
  p.lock_timeout = Duration::Millis(5);
  EngineFixture f(p);
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t t1 = fx.db->Begin();
    co_await fx.db->Put(t1, 3, fx.Value(3));
    const uint64_t t2 = fx.db->Begin();
    const DbStatus st = co_await fx.db->Put(t2, 3, fx.Value(4));
    EXPECT_EQ(st, DbStatus::kLockTimeout);
    // t2 was auto-aborted; t1 can still commit.
    EXPECT_EQ(co_await fx.db->Commit(t1), DbStatus::kOk);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, CommittedDataSurvivesCleanReopen) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 50; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.CrashAndReopen();
    EXPECT_EQ(co_await fx.db->CommittedCount(), 50u);
    for (uint64_t k = 0; k < 50; ++k) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(k, &got)) << k;
      EXPECT_EQ(got, fx.Value(k));
    }
    co_await fx.db->CheckTreeStructure();
  }(f));
  f.sim.Run();
  EXPECT_GT(f.db->stats().recovered_records.value(), 0);
}

TEST(DatabaseTest, PowerLossAfterCommitAckPreservesData) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 123, fx.Value(9));
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    // Power cut: volatile device caches dropped, engine memory gone.
    co_await fx.PowerFailAndReopen();
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(123, &got));
    EXPECT_EQ(got, fx.Value(9));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, UncommittedNeverSurvivesCrash) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t committed = fx.db->Begin();
    co_await fx.db->Put(committed, 1, fx.Value(1));
    co_await fx.db->Commit(committed);
    const uint64_t open_txn = fx.db->Begin();
    co_await fx.db->Put(open_txn, 2, fx.Value(2));
    // Crash with open_txn still uncommitted.
    co_await fx.PowerFailAndReopen();
    EXPECT_TRUE(co_await fx.db->ReadCommitted(1, nullptr));
    EXPECT_FALSE(co_await fx.db->ReadCommitted(2, nullptr));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, CheckpointBoundsReplayWork) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 100; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
    co_await fx.db->Checkpoint();
    const int64_t checkpoints_before = fx.db->stats().checkpoints.value();
    EXPECT_GE(checkpoints_before, 1);
    co_await fx.CrashAndReopen();
    // Everything was checkpointed: replay work is bounded by the records in
    // the checkpoint's (partial) tail block, not the whole 100-txn history.
    EXPECT_LT(fx.db->stats().recovered_records.value(), 10);
    EXPECT_EQ(co_await fx.db->CommittedCount(), 100u);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, RepeatedCrashReopenIsIdempotent) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 30; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
    for (int round = 0; round < 3; ++round) {
      co_await fx.CrashAndReopen();
      EXPECT_EQ(co_await fx.db->CommittedCount(), 30u) << "round " << round;
      co_await fx.db->CheckTreeStructure();
    }
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, CommitsAfterRecoveryFromEmptyLogTailSurvive) {
  // A recovery ends with a checkpoint whose replay point is the next, still
  // empty, log block. A power cut before any further record leaves the next
  // recovery an empty tail to scan; the WAL must still resume above every
  // LSN the checkpoint captured, or the commits made afterwards sit at or
  // below the redo horizons and the recovery after them skips them as
  // already checkpointed.
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 20; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.PowerFailAndReopen();  // replays, then checkpoints
    co_await fx.PowerFailAndReopen();  // empty tail: nothing after that
    constexpr uint64_t kAcked = 12;
    for (uint64_t k = 100; k < 100 + kAcked; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.PowerFailAndReopen();
    for (uint64_t k = 100; k < 100 + kAcked; ++k) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(k, &got)) << "key " << k;
      EXPECT_EQ(got, fx.Value(k)) << "key " << k;
    }
    EXPECT_EQ(co_await fx.db->CommittedCount(), 20u + kAcked);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, OverwritesRecoverToLatestValue) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t round = 1; round <= 5; ++round) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, 42, fx.Value(round * 100));
      co_await fx.db->Commit(txn);
    }
    co_await fx.CrashAndReopen();
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.db->ReadCommitted(42, &got));
    EXPECT_EQ(got, fx.Value(500));
    EXPECT_EQ(co_await fx.db->CommittedCount(), 1u);
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, DeletesRecover) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    uint64_t txn = fx.db->Begin();
    co_await fx.db->Put(txn, 1, fx.Value(1));
    co_await fx.db->Put(txn, 2, fx.Value(2));
    co_await fx.db->Commit(txn);
    txn = fx.db->Begin();
    co_await fx.db->Remove(txn, 1);
    co_await fx.db->Commit(txn);
    co_await fx.CrashAndReopen();
    EXPECT_FALSE(co_await fx.db->ReadCommitted(1, nullptr));
    EXPECT_TRUE(co_await fx.db->ReadCommitted(2, nullptr));
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, AsyncUnsafeModeCanLoseAckedCommits) {
  EngineFixture f(PostgresLikeProfile(), DurabilityMode::kAsyncUnsafe);
  bool lost_something = false;
  f.sim.Spawn([](EngineFixture& fx, bool& lost) -> Task<void> {
    co_await fx.OpenDb();
    // Commit a burst and cut power immediately: with async commit some
    // acknowledged transactions have not reached the log device.
    for (uint64_t k = 0; k < 50; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k, fx.Value(k));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.PowerFailAndReopen();
    const uint64_t survived = co_await fx.db->CommittedCount();
    lost = survived < 50;
  }(f, lost_something));
  f.sim.Run();
  EXPECT_TRUE(lost_something);
}

TEST(DatabaseTest, ManyConcurrentClientsRandomWorkload) {
  EngineFixture f;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    rlsim::TaskGroup group(fx.sim);
    auto expected = std::make_shared<std::map<uint64_t, uint64_t>>();
    for (int c = 0; c < 8; ++c) {
      group.Spawn([](EngineFixture& fx2, int client,
                     std::shared_ptr<std::map<uint64_t, uint64_t>> exp)
                      -> Task<void> {
        rlsim::Rng rng(static_cast<uint64_t>(client) + 99);
        for (int i = 0; i < 40; ++i) {
          // Disjoint key ranges per client: no lock conflicts, so every
          // transaction commits and the expected map is exact.
          const uint64_t key =
              static_cast<uint64_t>(client) * 1000 + rng.NextBelow(100);
          const uint64_t seed = rng.Next() % 1000;
          const uint64_t txn = fx2.db->Begin();
          EXPECT_EQ(co_await fx2.db->Put(txn, key, fx2.Value(seed)),
                    DbStatus::kOk);
          EXPECT_EQ(co_await fx2.db->Commit(txn), DbStatus::kOk);
          (*exp)[key] = seed;
        }
      }(fx, c, expected));
    }
    co_await group.Join();
    co_await fx.CrashAndReopen();
    EXPECT_EQ(co_await fx.db->CommittedCount(), expected->size());
    for (const auto& [key, seed] : *expected) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(key, &got)) << key;
      EXPECT_EQ(got, fx.Value(seed)) << key;
    }
    co_await fx.db->CheckTreeStructure();
  }(f));
  f.sim.Run();
}

TEST(DatabaseTest, LargeWorkloadTriggersAutomaticCheckpoints) {
  EngineProfile p = PostgresLikeProfile();
  p.checkpoint_dirty_pages = 32;
  EngineFixture f(p);
  f.options.profile.checkpoint_dirty_pages = 32;
  f.sim.Spawn([](EngineFixture& fx) -> Task<void> {
    co_await fx.OpenDb();
    for (uint64_t k = 0; k < 3000; ++k) {
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, k * 977 % 100000, fx.Value(k));
      co_await fx.db->Commit(txn);
    }
  }(f));
  f.sim.Run();
  EXPECT_GT(f.db->stats().checkpoints.value(), 0);
}

// A pool of 64 frames over a tree of about 200 leaves. The load and a pass
// of scattered reads cycle the frame slots through CLOCK eviction, and the
// final commit updates keys in scattered order, so the pages it dirties sit
// in frame slots in no particular page order. `expected` receives the
// committed contents, key -> value seed.
constexpr uint64_t kScrambleKeys = 8000;

void UseSmallPool(EngineFixture& fx) {
  fx.options.pool_pages = 64;
  fx.options.profile.checkpoint_dirty_pages = 40;
}

Task<void> DirtyScrambledFrames(EngineFixture& fx,
                                std::map<uint64_t, uint64_t>& expected) {
  co_await fx.OpenDb();
  for (uint64_t base = 0; base < kScrambleKeys; base += 100) {
    const uint64_t txn = fx.db->Begin();
    for (uint64_t k = base; k < base + 100; ++k) {
      co_await fx.db->Put(txn, k, fx.Value(k));
      expected[k] = k;
    }
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
  }
  co_await fx.db->Checkpoint();
  EXPECT_EQ(fx.db->pool().dirty_count(), 0u);
  rlsim::Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    co_await fx.db->ReadCommitted(rng.NextBelow(kScrambleKeys), nullptr);
  }
  const uint64_t txn = fx.db->Begin();
  for (uint64_t i = 1; i <= 30; ++i) {
    const uint64_t key = i * 2654435761ull % kScrambleKeys;
    co_await fx.db->Put(txn, key, fx.Value(key + 1));
    expected[key] = key + 1;
  }
  EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
}

TEST(DatabaseTest, CheckpointWritesPagesInPlaceInPageOrder) {
  EngineFixture f;
  UseSmallPool(f);
  std::vector<uint64_t> in_place;
  f.sim.Spawn([](EngineFixture& fx, std::vector<uint64_t>& out) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await DirtyScrambledFrames(fx, expected);
    fx.probe.requests.clear();
    co_await fx.db->Checkpoint();
    out = fx.probe.LastInPlacePhase();
  }(f, in_place));
  f.sim.Run();
  // One write per dirty leaf, in strictly ascending LBA order: one sweep
  // across the data disk instead of a seek per page.
  EXPECT_GE(in_place.size(), 20u);
  EXPECT_EQ(std::adjacent_find(in_place.begin(), in_place.end(),
                               std::greater_equal<>()),
            in_place.end());
}

using FixtureSetup = std::function<void(EngineFixture&)>;
using DirtySet = std::function<Task<void>(EngineFixture&,
                                          std::map<uint64_t, uint64_t>&)>;

// One uncut checkpoint of the dirty set `dirty` leaves, on a fresh fixture
// configured by `setup`. The engine is deterministic, so every later run of
// the same setup issues the same requests.
struct CheckpointRun {
  std::vector<DataDiskProbe::Request> requests;  // the whole run's
  size_t first = 0;    // index of the checkpoint's first request
  size_t header = 0;   // index of its journal-header write
  uint64_t staged = 0;
  int64_t journal_sectors = 0;  // Database::Stats::journal_sectors
  uint64_t content = 0;  // ContentHash of the committed contents
};

CheckpointRun DryRunCheckpoint(const FixtureSetup& setup,
                               const DirtySet& dirty) {
  CheckpointRun run;
  EngineFixture f;
  setup(f);
  f.sim.Spawn([](EngineFixture& fx, CheckpointRun& out,
                 const DirtySet& d) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await d(fx, expected);
    out.staged = fx.db->pool().dirty_count();
    out.first = fx.probe.requests.size();
    const int64_t sectors = fx.db->stats().journal_sectors.value();
    co_await fx.db->Checkpoint();
    out.journal_sectors = fx.db->stats().journal_sectors.value() - sectors;
    EXPECT_EQ(co_await fx.db->CommittedCount(), expected.size());
    for (const auto& [key, seed] : expected) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(key, &got)) << key;
      EXPECT_EQ(got, fx.Value(seed)) << key;
    }
    out.content = co_await fx.db->ContentHash();
  }(f, run, dirty));
  f.sim.Run();
  for (size_t i = run.first; i < f.probe.requests.size(); ++i) {
    if (f.probe.IsHeaderWrite(i)) {
      run.header = i;
    }
  }
  run.requests = f.probe.requests;
  EXPECT_GT(run.header, 0u);
  return run;
}

void PowerCut(EngineFixture& fx) {
  fx.data.PowerLoss();
  fx.log.PowerLoss();
}

// Runs `dirty` on a fresh fixture, runs `cut` just before request `cut_at`
// of the checkpoint that follows, and once the checkpoint halts cuts the
// power, calls `inspect` on the dark disks and recovers. The engine must
// recover `want_content` and repair exactly `want_repaired` pages from the
// journal.
void CutCheckpointAndRecover(
    const FixtureSetup& setup, const DirtySet& dirty, size_t cut_at,
    const std::function<void(EngineFixture&)>& cut, uint64_t want_repaired,
    uint64_t want_content,
    const std::function<void(EngineFixture&)>& inspect = nullptr) {
  EngineFixture f;
  setup(f);
  f.probe.cut = [&f, &cut] { cut(f); };
  f.sim.Spawn([](EngineFixture& fx, size_t at, uint64_t repaired,
                 uint64_t content, const DirtySet& d,
                 const std::function<void(EngineFixture&)>& look)
                  -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await d(fx, expected);
    fx.probe.cut_at_request = static_cast<int64_t>(at);
    bool halted = false;
    try {
      co_await fx.db->Checkpoint();
    } catch (const EngineHalted&) {
      halted = true;
    }
    EXPECT_TRUE(halted);
    fx.probe.cut_at_request = -1;
    PowerCut(fx);
    co_await fx.db->Close();
    fx.db.reset();
    if (look) {
      look(fx);
    }
    fx.data.PowerRestore();
    fx.log.PowerRestore();
    co_await fx.OpenDb();
    EXPECT_EQ(fx.db->stats().repaired_from_journal.value(),
              static_cast<int64_t>(repaired));
    EXPECT_EQ(co_await fx.db->ContentHash(), content);
    co_await fx.db->CheckTreeStructure();
  }(f, cut_at, want_repaired, want_content, dirty, inspect));
  f.sim.Run();
}

// Cuts power before each write of one checkpoint in turn: id pages, journal
// images, the header, the in-place writes and the metadata, with earlier
// writes still in the volatile cache, partly destaged. `setup` configures a
// fresh fixture; `dirty` opens the engine and leaves the dirty set the
// checkpoint stages, recording the committed contents (key -> value seed).
// Every cut must recover the committed contents exactly (the content hash
// of an uncut run, whose values are checked key by key): a cut before the
// header write finds no journal to replay and redoes the log; a cut after
// it repairs every journaled page in place. Returns the number of cuts.
size_t SweepCheckpointPowerCuts(const FixtureSetup& setup,
                                const DirtySet& dirty) {
  const CheckpointRun run = DryRunCheckpoint(setup, dirty);
  size_t cuts = 0;
  for (size_t at = run.first; at < run.requests.size(); ++at) {
    if (run.requests[at].flush) {
      continue;
    }
    SCOPED_TRACE("cut before request " + std::to_string(at));
    CutCheckpointAndRecover(setup, dirty, at, PowerCut,
                            at > run.header ? run.staged : 0, run.content);
    ++cuts;
  }
  return cuts;
}

TEST(DatabaseTest, PowerCutAtEveryCheckpointWriteRecovers) {
  // Once the journal header is durable, the journal repairs whatever the
  // in-place phase left behind, so the order of those writes is free.
  const size_t cuts = SweepCheckpointPowerCuts(UseSmallPool,
                                               DirtyScrambledFrames);
  // Images, header, in-place writes and metadata of a >= 20-page checkpoint.
  EXPECT_GE(cuts, 2 * 20 + 2u);
}

// A 4 KiB-page engine whose journal region (1200 pages) is far larger than
// the page ids one 4 KiB header page holds (378), with the commercial
// profile's 512-page checkpoint threshold. Wide rows (four to a leaf) make
// a tree of several hundred pages from a short load.
void UseCommercialJournal(EngineFixture& fx) {
  fx.options.profile = CommercialLikeProfile();
  fx.options.profile.value_bytes = 960;
  fx.options.profile.checkpoint_dirty_pages = 512;
  fx.options.pool_pages = 700;
  fx.options.journal_pages = 1200;
}

constexpr uint64_t kHeaderIdsAt4K = 378;

// Loads more leaves than the header has id room for, without a checkpoint:
// the dirty set exceeds 378 pages, so the next checkpoint's id list spills
// onto an id page.
Task<void> DirtyPastHeader(EngineFixture& fx,
                           std::map<uint64_t, uint64_t>& expected) {
  co_await fx.OpenDb();
  constexpr uint64_t kKeys = 1000;
  for (uint64_t base = 0; base < kKeys; base += 250) {
    const uint64_t txn = fx.db->Begin();
    for (uint64_t k = base; k < base + 250; ++k) {
      co_await fx.db->Put(txn, k, fx.Value(k));
      expected[k] = k;
    }
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
  }
  EXPECT_EQ(fx.db->stats().checkpoints.value(), 0);
  EXPECT_GT(fx.db->pool().dirty_count(), kHeaderIdsAt4K);
}

TEST(DatabaseTest, SmallPageJournalSpillsIdsPastTheHeader) {
  EngineFixture f;
  UseCommercialJournal(f);
  uint64_t staged = 0;
  f.sim.Spawn([](EngineFixture& fx, uint64_t& n) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await DirtyPastHeader(fx, expected);
    n = fx.db->pool().dirty_count();
    fx.probe.requests.clear();
    co_await fx.db->Checkpoint();
    co_await fx.PowerFailAndReopen();
    EXPECT_EQ(co_await fx.db->CommittedCount(), expected.size());
    for (const auto& [key, seed] : expected) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(key, &got)) << key;
      EXPECT_EQ(got, fx.Value(seed)) << key;
    }
    co_await fx.db->CheckTreeStructure();
  }(f, staged));
  f.sim.Run();
  EXPECT_GT(staged, kHeaderIdsAt4K) << staged;
  // The id list continued onto journal page 1, written before the header.
  const uint64_t id_page_lba = PageLba(1, 4096);
  const auto& reqs = f.probe.requests;
  const auto id_write = std::find_if(reqs.begin(), reqs.end(), [&](auto& r) {
    return !r.flush && r.lba == id_page_lba;
  });
  const auto header_write =
      std::find_if(reqs.begin(), reqs.end(), [&](auto& r) {
        return r.fua && r.lba == PageLba(0, 4096);
      });
  ASSERT_NE(id_write, reqs.end());
  ASSERT_NE(header_write, reqs.end());
  EXPECT_LT(id_write, header_write);
}

TEST(DatabaseTest, SmallPageJournalSurvivesPowerCutAtEveryWrite) {
  const size_t cuts =
      SweepCheckpointPowerCuts(UseCommercialJournal, DirtyPastHeader);
  // Images, an id page, header, in-place writes and metadata.
  EXPECT_GE(cuts, 2 * kHeaderIdsAt4K + 3);
}

// The journal writes of a checkpoint's images: the writes between its first
// request and its header that land past the journal's id pages.
std::vector<DataDiskProbe::Request> JournalImageWrites(
    const CheckpointRun& run, const DbOptions& options) {
  const uint32_t page_bytes = options.profile.page_bytes;
  const uint64_t images_at = PageLba(
      JournalLayoutFor(options.journal_pages, page_bytes).id_pages,
      page_bytes);
  std::vector<DataDiskProbe::Request> out;
  for (size_t i = run.first; i < run.header; ++i) {
    const DataDiskProbe::Request& r = run.requests[i];
    if (!r.flush && r.lba >= images_at &&
        r.lba < PageLba(options.journal_pages, page_bytes)) {
      out.push_back(r);
    }
  }
  return out;
}

TEST(DatabaseTest, JournalEntryCarriesSectorsAboveThePageId) {
  const JournalEntry e{.page_id = (uint64_t{1} << 48) - 1, .sectors = 16};
  const uint64_t raw = EncodeJournalEntry(e);
  EXPECT_EQ(raw >> 48, 16u);
  EXPECT_EQ(DecodeJournalEntry(raw).page_id, e.page_id);
  EXPECT_EQ(DecodeJournalEntry(raw).sectors, 16u);
  EXPECT_THROW(EncodeJournalEntry({.page_id = uint64_t{1} << 48,
                                   .sectors = 1}),
               rlsim::CheckFailure);
}

TEST(DatabaseTest, TornJournalImageBeforeTheHeaderIsNotReplayed) {
  const CheckpointRun run = DryRunCheckpoint(UseSmallPool,
                                             DirtyScrambledFrames);
  EngineFixture defaults;
  UseSmallPool(defaults);
  const std::vector<DataDiskProbe::Request> images =
      JournalImageWrites(run, defaults.options);
  const auto multi = std::find_if(images.begin(), images.end(),
                                  [](auto& r) { return r.sectors >= 2; });
  ASSERT_NE(multi, images.end());
  size_t at = run.first;
  while (run.requests[at].lba != multi->lba || run.requests[at].flush) {
    ++at;
  }
  // The write fault lands the first half of the image's sectors durably and
  // fails the write; the power goes before the header is written.
  CutCheckpointAndRecover(
      UseSmallPool, DirtyScrambledFrames, at,
      [](EngineFixture& fx) { fx.data.InjectWriteFaults(1); },
      /*want_repaired=*/0, run.content, [&](EngineFixture& fx) {
        const uint64_t half = multi->sectors / 2;
        std::vector<uint8_t> durable(multi->sectors * rlstor::kSectorSize);
        for (uint64_t i = 0; i < multi->sectors; ++i) {
          fx.data.image().ReadDurable(
              multi->lba + i,
              std::span<uint8_t>(durable).subspan(i * rlstor::kSectorSize,
                                                  rlstor::kSectorSize));
        }
        const auto& wrote = fx.probe.cut_data;
        ASSERT_EQ(wrote.size(), durable.size());
        // Torn: the prefix landed, the image as a whole did not.
        EXPECT_TRUE(std::equal(
            wrote.begin(),
            wrote.begin() + static_cast<ptrdiff_t>(half * rlstor::kSectorSize),
            durable.begin()));
        EXPECT_NE(wrote, durable);
      });
}

// A sequential load: every leaf but the last has split, so each keeps the
// entries it handed to its right sibling as stale bytes past its used
// length. 2000 keys, no checkpoint yet.
Task<void> DirtySplitLeaves(EngineFixture& fx,
                            std::map<uint64_t, uint64_t>& expected) {
  co_await fx.OpenDb();
  for (uint64_t base = 0; base < 2000; base += 100) {
    const uint64_t txn = fx.db->Begin();
    for (uint64_t k = base; k < base + 100; ++k) {
      co_await fx.db->Put(txn, k, fx.Value(k));
      expected[k] = k;
    }
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
  }
  EXPECT_EQ(fx.db->stats().checkpoints.value(), 0);
}

TEST(DatabaseTest, StaleTailPageRoundTripsThroughJournalReplay) {
  const auto setup = [](EngineFixture&) {};
  const CheckpointRun run = DryRunCheckpoint(setup, DirtySplitLeaves);
  EngineFixture f;
  f.probe.cut = [&f] { PowerCut(f); };
  struct Result {
    size_t stale = 0;
    size_t compared = 0;
  } result;
  f.sim.Spawn([](EngineFixture& fx, const CheckpointRun& dry,
                 Result& out) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await DirtySplitLeaves(fx, expected);
    // The canonical image of every dirty page: its used prefix, a zeroed
    // tail, sealed.
    const uint32_t page_bytes = fx.options.profile.page_bytes;
    std::map<uint64_t, std::vector<uint8_t>> canonical;
    for (uint64_t pid = fx.options.journal_pages;
         pid < fx.options.journal_pages + 200; ++pid) {
      const BufferPool::Frame* frame = fx.db->pool().Peek(pid);
      if (frame == nullptr || !frame->dirty) {
        continue;
      }
      const size_t used =
          PageUsedBytes(frame->data, fx.options.profile.value_bytes);
      std::vector<uint8_t> image(frame->data.begin(),
                                 frame->data.begin() +
                                     static_cast<ptrdiff_t>(used));
      image.resize(page_bytes);
      SealPage(image, pid);
      if (!std::equal(image.begin() + static_cast<ptrdiff_t>(used),
                      image.end(), frame->data.begin() +
                                       static_cast<ptrdiff_t>(used))) {
        ++out.stale;
      }
      canonical.emplace(pid, std::move(image));
    }
    EXPECT_EQ(canonical.size(), fx.db->pool().dirty_count());
    // Cut before the first in-place write: every page must come back from
    // its packed journal image.
    fx.probe.cut_at_request = static_cast<int64_t>(dry.header + 1);
    bool halted = false;
    try {
      co_await fx.db->Checkpoint();
    } catch (const EngineHalted&) {
      halted = true;
    }
    EXPECT_TRUE(halted);
    fx.probe.cut_at_request = -1;
    co_await fx.db->Close();
    fx.db.reset();
    fx.data.PowerRestore();
    fx.log.PowerRestore();
    co_await fx.OpenDb();
    EXPECT_EQ(fx.db->stats().repaired_from_journal.value(),
              static_cast<int64_t>(canonical.size()));
    for (const auto& [pid, image] : canonical) {
      std::vector<uint8_t> disk(page_bytes);
      EXPECT_EQ(co_await fx.data.Read(PageLba(pid, page_bytes), disk),
                BlockStatus::kOk);
      EXPECT_EQ(disk, image) << "page " << pid;
      ++out.compared;
    }
    EXPECT_EQ(co_await fx.db->ContentHash(), dry.content);
  }(f, run, result));
  f.sim.Run();
  EXPECT_EQ(result.compared, run.staged);
  EXPECT_GT(result.stale, 10u);
}

TEST(DatabaseTest, SmallPageJournalPacksImagesPastTheIdPages) {
  const CheckpointRun run =
      DryRunCheckpoint(UseCommercialJournal, DirtyPastHeader);
  EngineFixture f;
  UseCommercialJournal(f);
  const JournalLayout layout = JournalLayoutFor(f.options.journal_pages, 4096);
  ASSERT_GT(layout.id_pages, 1u);
  const std::vector<DataDiskProbe::Request> images =
      JournalImageWrites(run, f.options);
  ASSERT_EQ(images.size(), run.staged);
  // One stream: image 0 right after the id pages, each next image right
  // after the one before, most of them shorter than a page.
  EXPECT_EQ(images[0].lba, PageLba(layout.id_pages, 4096));
  uint64_t sectors = 0;
  size_t short_images = 0;
  size_t unaligned = 0;
  for (size_t i = 0; i < images.size(); ++i) {
    if (i > 0) {
      EXPECT_EQ(images[i].lba, images[i - 1].lba + images[i - 1].sectors);
    }
    EXPECT_GE(images[i].sectors, 1u);
    EXPECT_LE(images[i].sectors, 8u);
    sectors += images[i].sectors;
    short_images += images[i].sectors < 8 ? 1 : 0;
    unaligned += (images[i].lba - kFirstPageSector) % 8 != 0 ? 1 : 0;
  }
  EXPECT_GT(short_images, run.staged / 2);
  EXPECT_GT(unaligned, 0u);
  EXPECT_LT(sectors, run.staged * 8);
  // The sector count covers the header and the id page in full and each
  // image by its own length.
  EXPECT_EQ(run.journal_sectors, static_cast<int64_t>(2 * 8 + sectors));
  // A cut after the header replays every packed image.
  CutCheckpointAndRecover(UseCommercialJournal, DirtyPastHeader,
                          run.header + 1, PowerCut, run.staged, run.content);
}

TEST(DatabaseTest, OneCommitPastTheJournalPageCapacityStillCheckpoints) {
  // The dirty throttle is soft: it admits a commit while the dirty set is
  // below it, and that commit's whole write-set then applies. Here one
  // commit of 150 scattered keys dirties more leaves than the 80-page
  // journal has pages (79 past the header). The packed images of those
  // half-full leaves still fit, so the checkpoint must take them all.
  EngineFixture f;
  f.options.pool_pages = 256;
  f.options.journal_pages = 80;
  f.options.profile.checkpoint_dirty_pages = 40;
  const JournalLayout layout = JournalLayoutFor(80, 8192);
  uint64_t images = 0;
  f.sim.Spawn([](EngineFixture& fx, uint64_t& out) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await fx.OpenDb();
    for (uint64_t base = 0; base < kScrambleKeys; base += 100) {
      const uint64_t txn = fx.db->Begin();
      for (uint64_t k = base; k < base + 100; ++k) {
        co_await fx.db->Put(txn, k, fx.Value(k));
        expected[k] = k;
      }
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    }
    co_await fx.db->Checkpoint();
    fx.probe.requests.clear();
    const uint64_t txn = fx.db->Begin();
    for (uint64_t i = 1; i <= 150; ++i) {
      const uint64_t key = i * 2654435761ull % kScrambleKeys;
      co_await fx.db->Put(txn, key, fx.Value(key + 3));
      expected[key] = key + 3;
    }
    EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
    co_await fx.db->Checkpoint();  // waits out the one the commit started
    EXPECT_EQ(fx.db->pool().dirty_count(), 0u);
    const uint64_t images_at = PageLba(1, 8192);
    for (const DataDiskProbe::Request& r : fx.probe.requests) {
      if (!r.flush && r.lba >= images_at && r.lba < PageLba(80, 8192)) {
        ++out;
      }
    }
    co_await fx.PowerFailAndReopen();
    EXPECT_EQ(co_await fx.db->CommittedCount(), expected.size());
    for (const auto& [key, seed] : expected) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.db->ReadCommitted(key, &got)) << key;
      EXPECT_EQ(got, fx.Value(seed)) << key;
    }
    co_await fx.db->CheckTreeStructure();
  }(f, images));
  f.sim.Run();
  EXPECT_EQ(layout.id_pages, 1u);
  EXPECT_GT(images, layout.capacity);
}

// Collects the dirty-throttle spans of a run.
class ThrottleSpans : public rlsim::TraceEventSink {
 public:
  struct Span {
    TimePoint begin;
    TimePoint end;
    bool closed = false;
  };

  void OnTraceEvent(TimePoint, std::string_view, std::string_view,
                    uint32_t) override {}
  void OnSpanBegin(TimePoint at, std::string_view, std::string_view kind,
                   uint64_t span_id, uint64_t, int64_t) override {
    if (kind == "dirty-throttle") {
      open_[span_id] = spans.size();
      spans.push_back({at, at});
    }
  }
  void OnSpanEnd(TimePoint at, std::string_view, std::string_view,
                 uint64_t span_id, int64_t) override {
    const auto it = open_.find(span_id);
    if (it != open_.end()) {
      spans[it->second].end = at;
      spans[it->second].closed = true;
      open_.erase(it);
    }
  }

  std::vector<Span> spans;

 private:
  std::map<uint64_t, size_t> open_;
};

TEST(DatabaseTest, ThrottledCommitEmitsOneDirtyThrottleSpan) {
  // Hold the data disk's writes at a gate so the first checkpoint cannot
  // finish: commits keep dirtying pages until one reaches the throttle
  // (96 pages in a 128-frame pool) and waits. It waits through that
  // checkpoint and the one it then spawns, under a single span.
  EngineFixture f;
  f.options.pool_pages = 128;
  f.options.profile.checkpoint_dirty_pages = 16;
  ThrottleSpans sink;
  f.sim.set_tracer(&sink);
  struct Throttled {
    TimePoint start;
    TimePoint end;
    TimePoint gate_opened;
    int commits = 0;
  } throttled;
  f.sim.Spawn([](EngineFixture& fx, Throttled& out) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await DirtyScrambledFrames(fx, expected);
    co_await fx.db->Checkpoint();
    fx.probe.CloseGate();
    fx.sim.Spawn([](EngineFixture& fx2, Throttled& t) -> Task<void> {
      co_await fx2.sim.Sleep(Duration::Millis(500));
      t.gate_opened = fx2.sim.now();
      fx2.probe.OpenGate();
    }(fx, out));
    for (uint64_t i = 0; i < 1000; ++i) {
      const uint64_t txn = fx.db->Begin();
      for (uint64_t j = 0; j < 8; ++j) {
        const uint64_t key = (i * 8 + j) * 2654435761ull % kScrambleKeys;
        co_await fx.db->Put(txn, key, fx.Value(i));
      }
      const TimePoint start = fx.sim.now();
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
      ++out.commits;
      if (fx.sim.now() - start > Duration::Millis(100)) {
        out.start = start;
        out.end = fx.sim.now();
        break;
      }
    }
  }(f, throttled));
  f.sim.Run();
  f.sim.set_tracer(nullptr);

  ASSERT_GT(throttled.end, throttled.start) << "no commit was throttled";
  EXPECT_GT(throttled.commits, 1);
  // Exactly one span, from the throttled commit alone, open across the
  // whole stall: it began before the gate opened and ended after it.
  ASSERT_EQ(sink.spans.size(), 1u);
  const ThrottleSpans::Span& span = sink.spans[0];
  EXPECT_TRUE(span.closed);
  EXPECT_GE(span.begin, throttled.start);
  EXPECT_LE(span.end, throttled.end);
  EXPECT_LT(span.begin, throttled.gate_opened);
  EXPECT_GT(span.end, throttled.gate_opened);
}

TEST(DatabaseTest, StalledCheckpointEvictsStagedFramesInsteadOfFailing) {
  // A checkpoint held at a closed gate keeps its ~90 staged frames until
  // its in-place writes land, while the commits behind it dirty pages up to
  // the throttle (96 pages in a 128-frame pool): staged plus dirty frames
  // outgrow the pool. Fetches must then evict clean staged frames and serve
  // those pages from the staged images, not fail.
  EngineFixture f;
  f.options.pool_pages = 128;
  f.options.profile.checkpoint_dirty_pages = 90;
  struct Outcome {
    int commits = 0;
    int64_t staged_evictions = 0;
  } outcome;
  f.sim.Spawn([](EngineFixture& fx, Outcome& out) -> Task<void> {
    std::map<uint64_t, uint64_t> expected;
    co_await DirtyScrambledFrames(fx, expected);
    co_await fx.db->Checkpoint();
    fx.probe.CloseGate();
    fx.sim.Spawn([](EngineFixture& fx2) -> Task<void> {
      co_await fx2.sim.Sleep(Duration::Millis(500));
      fx2.probe.OpenGate();
    }(fx));
    for (uint64_t i = 0; i < 600; ++i) {
      const uint64_t key = (i + 31) * 2654435761ull % kScrambleKeys;
      const uint64_t txn = fx.db->Begin();
      co_await fx.db->Put(txn, key, fx.Value(key + i + 2));
      EXPECT_EQ(co_await fx.db->Commit(txn), DbStatus::kOk);
      expected[key] = key + i + 2;
      ++out.commits;
    }
    out.staged_evictions = fx.db->pool().stats().staged_evictions.value();
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(co_await fx.db->CommittedCount(), expected.size());
      for (const auto& [key, seed] : expected) {
        std::vector<uint8_t> got;
        EXPECT_TRUE(co_await fx.db->ReadCommitted(key, &got)) << key;
        EXPECT_EQ(got, fx.Value(seed)) << key;
      }
      co_await fx.db->CheckTreeStructure();
      if (round == 0) {
        co_await fx.PowerFailAndReopen();
      }
    }
  }(f, outcome));
  f.sim.Run();
  EXPECT_EQ(outcome.commits, 600);
  EXPECT_GT(outcome.staged_evictions, 0);
}

TEST(BufferPoolTest, FrameReadingForAMissIsNotHandedOutAgain) {
  // A miss takes a victim frame and then waits for the device read; until
  // the read lands the frame holds no page. Here the read is held at a gate
  // while a Create runs, and every frame the clock hand passes first is
  // dirty or recently referenced, so the hand reaches the reading frame
  // before any frame it could evict. The Create must get another frame.
  constexpr uint32_t kPageBytes = 4096;
  constexpr uint32_t kFrames = 8;
  Simulator sim;
  SimBlockDevice disk(
      sim,
      SimBlockDevice::Options{.geometry = {.sector_count = 1 << 16},
                              .cache_policy = WriteCachePolicy::kWriteBack,
                              .name = "data"},
      rlstor::MakeDefaultSsd());
  DataDiskProbe probe(sim, disk, /*header_lba=*/0);
  BufferPool pool(sim, probe, kPageBytes, kFrames);
  struct Frames {
    const BufferPool::Frame* fetched = nullptr;
    const BufferPool::Frame* created = nullptr;
  } frames;
  sim.Spawn([](Simulator& s, DataDiskProbe& gate, BufferPool& p,
               Frames& out) -> Task<void> {
    for (const uint64_t page : {1, 2}) {
      std::vector<uint8_t> image(kPageBytes);
      SealPage(image, page);
      EXPECT_TRUE(co_await p.WritePageDirect(page, image, /*fua=*/true));
    }
    // The first frame: clean and referenced.
    p.Unpin(co_await p.Fetch(1), /*mark_dirty=*/false);
    // All frames but the last: dirty.
    for (uint64_t page = 100; page < 100 + kFrames - 2; ++page) {
      p.Unpin(p.Create(page), /*mark_dirty=*/true);
    }
    // The last frame goes to a miss whose read waits at the gate.
    gate.CloseReadGate();
    s.Spawn([](BufferPool& p2, Frames& o) -> Task<void> {
      o.fetched = co_await p2.Fetch(2);
    }(p, out));
    co_await s.Sleep(Duration::Millis(1));
    out.created = p.Create(200);
    gate.OpenReadGate();
  }(sim, probe, pool, frames));
  sim.Run();

  ASSERT_NE(frames.fetched, nullptr);
  ASSERT_NE(frames.created, nullptr);
  EXPECT_NE(frames.fetched, frames.created);
  EXPECT_EQ(pool.Peek(2), frames.fetched);
  EXPECT_EQ(pool.Peek(200), frames.created);
  EXPECT_EQ(frames.created->page_id, 200u);
  EXPECT_TRUE(frames.created->dirty);
  // The clean frame was the one to go.
  EXPECT_EQ(pool.Peek(1), nullptr);
}

// Pins and unpins a page, with plain Fetch or the way the B-tree does: the
// frame-free hit path first, the Fetch coroutine only on a miss.
Task<void> FetchAndUnpin(BufferPool& pool, uint64_t page,
                         bool frame_free_hits) {
  BufferPool::Frame* f =
      frame_free_hits ? pool.FetchResident(page) : nullptr;
  if (f == nullptr) {
    f = co_await pool.Fetch(page);
  }
  EXPECT_EQ(f->page_id, page);
  pool.Unpin(f, /*mark_dirty=*/false);
}

TEST(BufferPoolTest, FrameFreeHitsCountLikeFetch) {
  // One script, run with plain Fetch and with the tree's FetchResident-
  // first path: a miss, a hit, two fetches of one page at the same instant
  // (a miss and a hit while its read is pending), then a miss and a hit.
  // Both paths must count the same fetches, hits, misses and reads.
  constexpr uint32_t kPageBytes = 4096;
  struct Counts {
    int64_t fetches, hits, misses, page_reads;
    bool operator==(const Counts&) const = default;
  };
  const auto run = [](bool frame_free_hits) {
    Simulator sim;
    SimBlockDevice disk(
        sim,
        SimBlockDevice::Options{.geometry = {.sector_count = 1 << 16},
                                .cache_policy = WriteCachePolicy::kWriteBack,
                                .name = "data"},
        rlstor::MakeDefaultSsd());
    BufferPool pool(sim, disk, kPageBytes, 8);
    sim.Spawn([](Simulator& s, BufferPool& p, bool ffh) -> Task<void> {
      for (const uint64_t page : {1, 2, 3}) {
        std::vector<uint8_t> image(kPageBytes);
        SealPage(image, page);
        EXPECT_TRUE(co_await p.WritePageDirect(page, image, /*fua=*/true));
      }
      co_await FetchAndUnpin(p, 1, ffh);  // miss
      co_await FetchAndUnpin(p, 1, ffh);  // hit
      s.Spawn(FetchAndUnpin(p, 2, ffh));  // miss: starts the read
      s.Spawn(FetchAndUnpin(p, 2, ffh));  // hit once the pending read lands
      co_await s.Sleep(Duration::Millis(10));
      co_await FetchAndUnpin(p, 3, ffh);  // miss
      co_await FetchAndUnpin(p, 3, ffh);  // hit
    }(sim, pool, frame_free_hits));
    sim.Run();
    const BufferPool::Stats& st = pool.stats();
    return Counts{st.fetches.value(), st.hits.value(), st.misses.value(),
                  st.page_reads.value()};
  };
  const Counts fetch_only = run(false);
  EXPECT_EQ(fetch_only, (Counts{6, 3, 3, 3}));
  EXPECT_EQ(run(true), fetch_only);
}

}  // namespace
}  // namespace rldb
