#include "src/faults/durability_checker.h"

#include <gtest/gtest.h>

#include "src/sim/check.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"
#include "src/workload/tpcc_lite.h"

namespace rlfault {
namespace {

using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;
using rlwork::RowValue;

struct Fixture {
  Fixture()
      : cpu(sim),
        data(sim,
             SimBlockDevice::Options{.geometry = {.sector_count = 1 << 19}},
             rlstor::MakeDefaultSsd()),
        log(sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 19}},
            rlstor::MakeDefaultSsd()) {}

  Task<void> OpenDb() {
    rldb::DbOptions opts;
    opts.pool_pages = 256;
    opts.journal_pages = 150;
    opts.profile.checkpoint_dirty_pages = 64;
    db = co_await rldb::Database::Open(sim, cpu, data, log, opts);
  }

  std::vector<uint8_t> Value(uint64_t key, uint64_t seed) {
    return RowValue(db->options().profile.value_bytes, key, seed);
  }

  Simulator sim;
  rldb::NativeCpu cpu;
  SimBlockDevice data;
  SimBlockDevice log;
  std::unique_ptr<rldb::Database> db;
};

TEST(DurabilityCheckerTest, CleanCommitVerifies) {
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    const auto value = fx.Value(1, 42);
    co_await fx.db->Put(txn, 1, value);
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 1, .value = value}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);
    chk.OnCommitAcked(1);
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.keys_checked, 1u);
}

TEST(DurabilityCheckerTest, DetectsLostWrite) {
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    // Claim a commit was acked that never actually happened.
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 5, .value = fx.Value(5, 1)}});
    chk.OnCommitAcked(1);
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.lost_writes, 1u);
}

TEST(DurabilityCheckerTest, AbortedTxnNotChecked) {
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 9, .value = fx.Value(9, 1)}});
    chk.OnAborted(1);
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.keys_checked, 0u);
}

TEST(DurabilityCheckerTest, InFlightCommitThatLandedIsPromoted) {
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    const uint64_t txn = fx.db->Begin();
    const auto value = fx.Value(3, 77);
    co_await fx.db->Put(txn, 3, value);
    chk.OnCommitAttempt(7, {TrackedWrite{.key = 3, .value = value}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);
    // Ack "lost" (crash between durability and the client seeing it):
    // no OnCommitAcked call. Verification resolves it as landed.
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.promoted_pending, 1u);
  // Promotion folds it into the model: a later verify checks it.
  EXPECT_EQ(checker.model_size(), 1u);
}

TEST(DurabilityCheckerTest, InFlightRewriteIsJudgedByTheLastWrite) {
  // v0 of key 3 is acked. Then a commit writes key 3 twice (v1, then v2: a
  // TPC-C new-order that draws one stock item twice) and lands without its
  // ack. The store holds v2, which is that commit's net effect: it must be
  // promoted, not read as a partial commit whose v1 was lost.
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    uint64_t txn = fx.db->Begin();
    const auto v0 = fx.Value(3, 0);
    co_await fx.db->Put(txn, 3, v0);
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 3, .value = v0}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);
    chk.OnCommitAcked(1);

    txn = fx.db->Begin();
    const auto v1 = fx.Value(3, 1);
    const auto v2 = fx.Value(3, 2);
    co_await fx.db->Put(txn, 3, v1);
    co_await fx.db->Put(txn, 3, v2);
    chk.OnCommitAttempt(2, {TrackedWrite{.key = 3, .value = v1},
                            TrackedWrite{.key = 3, .value = v2}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);

    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_EQ(verdict.keys_checked, 1u);
  EXPECT_EQ(verdict.lost_writes, 0u);
  EXPECT_EQ(verdict.atomicity_violations, 0u);
  EXPECT_EQ(verdict.promoted_pending, 1u);
}

TEST(DurabilityCheckerTest, InFlightCommitThatDidNotLandIsDropped) {
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    chk.OnCommitAttempt(7, {TrackedWrite{.key = 3, .value = fx.Value(3, 1)}});
    // Machine died before the commit record went out: key 3 absent.
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.promoted_pending, 0u);
  EXPECT_EQ(checker.pending_count(), 0u);
}

TEST(DurabilityCheckerTest, DeleteTracking) {
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    uint64_t txn = fx.db->Begin();
    const auto value = fx.Value(4, 1);
    co_await fx.db->Put(txn, 4, value);
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 4, .value = value}});
    co_await fx.db->Commit(txn);
    chk.OnCommitAcked(1);

    txn = fx.db->Begin();
    co_await fx.db->Remove(txn, 4);
    chk.OnCommitAttempt(2, {TrackedWrite{.key = 4, .is_delete = true, .value = {}}});
    co_await fx.db->Commit(txn);
    chk.OnCommitAcked(2);

    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

TEST(DurabilityCheckerTest, LaterAckedOverwriteIsNotAPartialCommit) {
  // Token 1 commits keys 1 and 2 but its ack is lost (the coordinator died
  // between the decision and the reply). Token 2 then rewrites key 1 and is
  // acked. Key 1 reads token 2's value, which says nothing about whether
  // token 1 landed: judged on key 2 alone, token 1 fully landed.
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    uint64_t txn = fx.db->Begin();
    const auto first1 = fx.Value(1, 1);
    const auto first2 = fx.Value(2, 1);
    co_await fx.db->Put(txn, 1, first1);
    co_await fx.db->Put(txn, 2, first2);
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 1, .value = first1},
                            TrackedWrite{.key = 2, .value = first2}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);

    txn = fx.db->Begin();
    const auto second1 = fx.Value(1, 2);
    co_await fx.db->Put(txn, 1, second1);
    chk.OnCommitAttempt(2, {TrackedWrite{.key = 1, .value = second1}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);
    chk.OnCommitAcked(2);

    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_EQ(verdict.atomicity_violations, 0u);
  EXPECT_EQ(verdict.promoted_pending, 1u);
  // Promotion adds key 2 and leaves the acked overwrite of key 1 in place.
  EXPECT_EQ(verdict.keys_checked, 2u);
  EXPECT_EQ(verdict.lost_writes, 0u);
}

TEST(DurabilityCheckerTest, PendingCommitThatWroteAfterAnAckedOverwriteLands) {
  // Token 1 is attempted first but waits on key 1's lock, which token 2
  // holds. Token 2 commits and is acked; token 1 then writes keys 1 and 2
  // and commits, but its ack is lost. The ack order says nothing about the
  // write order: key 1 holds token 1's value, and that is what the model
  // must expect after promotion.
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    const auto first1 = fx.Value(1, 1);
    const auto first2 = fx.Value(2, 1);
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 1, .value = first1},
                            TrackedWrite{.key = 2, .value = first2}});

    uint64_t txn = fx.db->Begin();
    const auto second1 = fx.Value(1, 2);
    co_await fx.db->Put(txn, 1, second1);
    chk.OnCommitAttempt(2, {TrackedWrite{.key = 1, .value = second1}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);
    chk.OnCommitAcked(2);

    txn = fx.db->Begin();
    co_await fx.db->Put(txn, 1, first1);
    co_await fx.db->Put(txn, 2, first2);
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);

    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
  EXPECT_EQ(verdict.atomicity_violations, 0u);
  EXPECT_EQ(verdict.lost_writes, 0u);
  EXPECT_EQ(verdict.promoted_pending, 1u);
  EXPECT_EQ(verdict.keys_checked, 2u);
}

TEST(DurabilityCheckerTest, PartialCommitOverAnOlderAckedValueIsAViolation) {
  // Keys 1 and 2 hold token 1's acked values. Token 2, attempted after that
  // ack, shows up on key 1 only: key 2 still reads the older acked value,
  // which is evidence token 2 did not land there.
  Fixture f;
  DurabilityChecker checker;
  VerifyResult verdict;
  f.sim.Spawn([](Fixture& fx, DurabilityChecker& chk,
                 VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    uint64_t txn = fx.db->Begin();
    const auto first1 = fx.Value(1, 1);
    const auto first2 = fx.Value(2, 1);
    co_await fx.db->Put(txn, 1, first1);
    co_await fx.db->Put(txn, 2, first2);
    chk.OnCommitAttempt(1, {TrackedWrite{.key = 1, .value = first1},
                            TrackedWrite{.key = 2, .value = first2}});
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);
    chk.OnCommitAcked(1);

    const auto second1 = fx.Value(1, 2);
    chk.OnCommitAttempt(2, {TrackedWrite{.key = 1, .value = second1},
                            TrackedWrite{.key = 2, .value = fx.Value(2, 2)}});
    txn = fx.db->Begin();
    co_await fx.db->Put(txn, 1, second1);
    EXPECT_EQ(co_await fx.db->Commit(txn), rldb::DbStatus::kOk);

    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, checker, verdict));
  f.sim.Run();
  EXPECT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.atomicity_violations, 1u);
  EXPECT_EQ(verdict.violating_tokens, std::vector<uint64_t>{2});
  EXPECT_EQ(verdict.promoted_pending, 0u);
}


TEST(DurabilityCheckerTest, ValueOf64KiBOrMoreIsRefused) {
  DurabilityChecker checker;
  // The largest value the model holds, then one byte more.
  checker.OnCommitAttempt(1, {TrackedWrite{
                                 .key = 1,
                                 .value = std::vector<uint8_t>(65535, 7)}});
  checker.OnCommitAcked(1);
  EXPECT_EQ(checker.model_size(), 1u);
  checker.OnCommitAttempt(2, {TrackedWrite{
                                 .key = 2,
                                 .value = std::vector<uint8_t>(65536, 7)}});
  EXPECT_THROW(checker.OnCommitAcked(2), rlsim::CheckFailure);
}

}  // namespace
}  // namespace rlfault
