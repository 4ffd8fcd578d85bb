#include "src/workload/client_driver.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>

#include "src/db/errors.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"
#include "src/storage/partition.h"
#include "src/vmm/vm.h"
#include "src/workload/kv_workload.h"
#include "src/workload/tpcc_lite.h"

namespace rlwork {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;

TEST(KeyEncodingTest, FieldsDoNotCollide) {
  const uint64_t a = MakeKey(Table::kCustomer, 1, 2, 3);
  EXPECT_NE(a, MakeKey(Table::kStock, 1, 2, 3));
  EXPECT_NE(a, MakeKey(Table::kCustomer, 2, 2, 3));
  EXPECT_NE(a, MakeKey(Table::kCustomer, 1, 3, 3));
  EXPECT_NE(a, MakeKey(Table::kCustomer, 1, 2, 4));
}

TEST(RowValueTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(RowValue(96, 1, 2), RowValue(96, 1, 2));
  EXPECT_NE(RowValue(96, 1, 2), RowValue(96, 1, 3));
  EXPECT_NE(RowValue(96, 1, 2), RowValue(96, 2, 2));
  EXPECT_EQ(RowValue(96, 1, 2).size(), 96u);
}

struct DbFixture {
  DbFixture()
      : cpu(sim),
        data(sim,
             SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20}},
             rlstor::MakeDefaultSsd()),
        log(sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20}},
            rlstor::MakeDefaultSsd()) {}

  Task<void> OpenDb() {
    rldb::DbOptions opts;
    opts.pool_pages = 1024;
    opts.journal_pages = 600;
    opts.profile.checkpoint_dirty_pages = 256;
    db = co_await rldb::Database::Open(sim, cpu, data, log, opts);
  }

  Simulator sim;
  rldb::NativeCpu cpu;
  SimBlockDevice data;
  SimBlockDevice log;
  std::unique_ptr<rldb::Database> db;
};

TEST(TpccLiteTest, LoadsAndRunsMixedClients) {
  DbFixture f;
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 20;
  cfg.items = 200;
  TpccLite tpcc(f.sim, cfg);
  ClientDriver clients(f.sim);
  f.sim.Spawn([](DbFixture& fx, TpccLite& w, ClientDriver& d) -> Task<void> {
    co_await fx.OpenDb();
    co_await w.LoadInitial(*fx.db);
    // Everything loaded: districts + customers + stock.
    const uint64_t expected = 4 + 4 * 20 + 200;
    EXPECT_EQ(co_await fx.db->CommittedCount(), expected);
    d.Spawn(4, w.Clients(*fx.db));
    co_await fx.sim.Sleep(Duration::Seconds(1));
    d.Stop();
  }(f, tpcc, clients));
  f.sim.Run();
  const ClientDriver::Stats& st = clients.stats();
  EXPECT_GT(st.committed.value(), 100);
  EXPECT_GT(st.committed_by_kind[TpccLite::kNewOrder].value(), 10);
  EXPECT_GT(st.committed_by_kind[TpccLite::kPayment].value(), 10);
  EXPECT_GT(st.committed_by_kind[TpccLite::kReadOnly].value(), 0);
}

TEST(TpccLiteTest, CheckerSeesConsistentState) {
  DbFixture f;
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 10;
  cfg.items = 100;
  TpccLite tpcc(f.sim, cfg);
  rlfault::DurabilityChecker checker;
  ClientDriver clients(f.sim, &checker);
  rlfault::VerifyResult verdict;
  f.sim.Spawn([](DbFixture& fx, TpccLite& w, ClientDriver& d,
                 rlfault::DurabilityChecker& chk,
                 rlfault::VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    co_await w.LoadInitial(*fx.db);
    d.Spawn(3, w.Clients(*fx.db));
    co_await fx.sim.Sleep(Duration::Millis(500));
    d.Stop();
    co_await fx.sim.Sleep(Duration::Millis(50));
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, tpcc, clients, checker, verdict));
  f.sim.Run();
  EXPECT_GT(verdict.keys_checked, 0u);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

// TPC-C-lite on a log partition of 24 blocks: the log laps its ring several
// times, with a power cut every round, and every acknowledged commit
// survives each recovery. The ring is too small for log-volume checkpoints
// to keep ahead of four clients, so commits wait for room too.
constexpr uint64_t kRingBlocks = 24;

TEST(TpccLiteTest, SurvivesPowerCutsWhileTheLogLapsItsRing) {
  Simulator sim(5);
  rldb::NativeCpu cpu(sim);
  SimBlockDevice data(
      sim, SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20}},
      rlstor::MakeDefaultSsd());
  SimBlockDevice log_disk(
      sim, SimBlockDevice::Options{.geometry = {.sector_count = 1 << 16}},
      rlstor::MakeDefaultSsd());
  rldb::DbOptions opts;
  opts.pool_pages = 1024;
  opts.journal_pages = 600;
  opts.profile.checkpoint_dirty_pages = 256;
  rlstor::PartitionDevice log(
      log_disk, /*first_lba=*/4096,
      kRingBlocks * opts.profile.log_block_bytes / rlstor::kSectorSize);
  TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 4;
  cfg.customers_per_district = 20;
  cfg.items = 200;
  TpccLite tpcc(sim, cfg);
  rlfault::DurabilityChecker checker;
  ClientDriver clients(sim, &checker);
  std::unique_ptr<rldb::Database> db;
  uint64_t log_blocks = 0;
  int64_t room_waits = 0;
  sim.Spawn([](Simulator& s, rldb::NativeCpu& c, SimBlockDevice& d,
               SimBlockDevice& ld, rlstor::PartitionDevice& l,
               rldb::DbOptions o, TpccLite& w, ClientDriver& drv,
               rlfault::DurabilityChecker& chk,
               std::unique_ptr<rldb::Database>& db_out, uint64_t& blocks,
               int64_t& waits) -> Task<void> {
    db_out = co_await rldb::Database::Open(s, c, d, l, o);
    co_await w.LoadInitial(*db_out);
    for (int round = 0; round < 5; ++round) {
      drv.Spawn(4, w.Clients(*db_out));
      co_await s.Sleep(Duration::Millis(400));
      d.PowerLoss();
      ld.PowerLoss();
      drv.Stop();
      co_await s.Sleep(Duration::Millis(300));  // clients unwind
      blocks = db_out->log_writer().current_block_index();
      EXPECT_LT(db_out->log_writer().stats().max_live_blocks, kRingBlocks);
      waits += db_out->stats().log_room_waits.value();
      co_await db_out->Close();
      db_out.reset();
      d.PowerRestore();
      ld.PowerRestore();
      db_out = co_await rldb::Database::Open(s, c, d, l, o);
      const rlfault::VerifyResult verdict =
          co_await chk.VerifyAfterRecovery(*db_out);
      EXPECT_TRUE(verdict.ok()) << "round " << round << ": "
                                << verdict.Summary();
      EXPECT_GT(verdict.keys_checked, 0u);
    }
    co_await db_out->Close();
  }(sim, cpu, data, log_disk, log, opts, tpcc, clients, checker, db, log_blocks,
         room_waits));
  sim.Run();
  EXPECT_GT(clients.stats().committed.value(), 100);
  EXPECT_GE(log_blocks, 3 * kRingBlocks);
  EXPECT_GT(room_waits, 0);
}

TEST(KvWorkloadTest, RunsAndVerifies) {
  DbFixture f;
  KvWorkload kv(f.sim, KvConfig{.key_space = 500, .zipf_theta = 0.9});
  rlfault::DurabilityChecker checker;
  ClientDriver clients(f.sim, &checker);
  rlfault::VerifyResult verdict;
  f.sim.Spawn([](DbFixture& fx, KvWorkload& w, ClientDriver& d,
                 rlfault::DurabilityChecker& chk,
                 rlfault::VerifyResult& out) -> Task<void> {
    co_await fx.OpenDb();
    co_await w.Load(*fx.db, 200);
    d.Spawn(4, w.Clients(*fx.db));
    co_await fx.sim.Sleep(Duration::Millis(500));
    d.Stop();
    co_await fx.sim.Sleep(Duration::Millis(50));
    out = co_await chk.VerifyAfterRecovery(*fx.db);
  }(f, kv, clients, checker, verdict));
  f.sim.Run();
  EXPECT_GT(clients.stats().committed.value(), 50);
  EXPECT_TRUE(verdict.ok()) << verdict.Summary();
}

TEST(LogStressTest, MeasuresCommitRate) {
  DbFixture f;
  LogStress stress;
  ClientDriver clients(f.sim);
  f.sim.Spawn([](DbFixture& fx, LogStress& w, ClientDriver& d) -> Task<void> {
    co_await fx.OpenDb();
    d.Spawn(2, w.Clients(*fx.db));
    co_await fx.sim.Sleep(Duration::Millis(300));
    d.Stop();
  }(f, stress, clients));
  f.sim.Run();
  EXPECT_GT(clients.stats().committed.value(), 100);
}

// --- ClientDriver over a stub generator -------------------------------------

// A stub client's script: turn n returns prepare(n) and, for a ready
// transaction, commit(n) after `commit_time` (or once `gate` is notified).
// Every turn ends with a 1 ms pause.
struct Stub {
  std::function<Txn(int turn)> prepare = [](int) { return Txn{}; };
  std::function<Outcome(int turn)> commit = [](int) {
    return Outcome::kCommitted;
  };
  Duration commit_time = Duration::Zero();
  rlsim::WaitQueue* gate = nullptr;
};

class StubSource : public TxnSource {
 public:
  StubSource(Simulator& sim, Stub stub, int& turns)
      : TxnSource(0), sim_(sim), stub_(std::move(stub)), turns_(turns) {}

  Task<Txn> Prepare() override {
    turn_ = turns_++;
    co_return stub_.prepare(turn_);
  }
  Task<Outcome> Commit() override {
    if (stub_.gate != nullptr) {
      co_await stub_.gate->Wait();
    } else {
      co_await sim_.Sleep(stub_.commit_time);
    }
    co_return stub_.commit(turn_);
  }
  std::optional<Duration> PauseAfter() override { return Duration::Millis(1); }

 private:
  Simulator& sim_;
  Stub stub_;
  int& turns_;  // turns started, over every client of the script
  int turn_ = 0;
};

ClientDriver::NewClient Stubs(Simulator& sim, const Stub& stub, int& turns) {
  return [&sim, stub, &turns](int) {
    return std::make_unique<StubSource>(sim, stub, turns);
  };
}

// A transaction writing `key` under token `key`.
Txn Writing(uint64_t key, Txn::State state = Txn::kReady) {
  return Txn{.state = state,
             .token = key,
             .writes = {rlfault::TrackedWrite{.key = key,
                                              .value = RowValue(16, key, 1)}},
             .kind = 2};
}

TEST(ClientDriverTest, EachOutcomeMakesExactlyItsCheckerCallsAndCount) {
  // Turn 0 commits, 1 aborts at its commit, 2 aborts before it and 3's
  // outcome is unknown; each writes key turn + 1. Later turns skip.
  Simulator sim;
  rlfault::DurabilityChecker checker;
  ClientDriver driver(sim, &checker);
  Stub stub{.commit_time = Duration::Millis(1)};
  stub.prepare = [](int turn) {
    const auto key = static_cast<uint64_t>(turn) + 1;
    if (turn > 3) {
      return Txn{.state = Txn::kSkipped};
    }
    return Writing(key, turn == 2 ? Txn::kAborted : Txn::kReady);
  };
  stub.commit = [](int turn) {
    return turn == 0   ? Outcome::kCommitted
           : turn == 1 ? Outcome::kAborted
                       : Outcome::kUnknown;
  };
  int turns = 0;
  driver.Spawn(1, Stubs(sim, stub, turns));
  sim.RunFor(Duration::Millis(20));
  driver.Stop();
  sim.Run();

  const ClientDriver::Stats& st = driver.stats();
  EXPECT_EQ(st.committed.value(), 1);
  EXPECT_EQ(st.committed_by_kind[2].value(), 1);
  EXPECT_EQ(st.aborted.value(), 2);
  EXPECT_EQ(st.unknown.value(), 1);
  EXPECT_EQ(st.machine_deaths.value(), 0);
  EXPECT_EQ(st.txn_latency.count(), 3);  // every turn that reached Commit
  // The model holds the acked key 1; only the unknown commit (token 4) is
  // pending: the abort at commit was withdrawn, the one before it never
  // attempted.
  EXPECT_EQ(checker.model_size(), 1u);
  EXPECT_EQ(checker.pending_count(), 1u);
  EXPECT_GT(turns, 4);
}

TEST(ClientDriverTest, MachineDeathEndsTheClientAndCountsOnce) {
  // Nothing stops these clients: the run ends because both die, one engine
  // halting in its second Prepare, one guest crashing in its third Commit.
  Simulator sim;
  ClientDriver driver(sim);
  Stub halts;
  halts.prepare = [](int turn) {
    if (turn == 1) {
      throw rldb::EngineHalted();
    }
    return Txn{};
  };
  Stub crashes;
  crashes.commit = [](int turn) {
    if (turn == 2) {
      throw rlvmm::GuestCrashed();
    }
    return Outcome::kCommitted;
  };
  int halted_turns = 0;
  int crashed_turns = 0;
  driver.Spawn(1, Stubs(sim, halts, halted_turns));
  driver.Spawn(1, Stubs(sim, crashes, crashed_turns));
  sim.Run();
  EXPECT_EQ(driver.stats().machine_deaths.value(), 2);
  EXPECT_EQ(halted_turns, 2);
  EXPECT_EQ(crashed_turns, 3);
  EXPECT_EQ(driver.stats().committed.value(), 1 + 2);
}

TEST(ClientDriverTest, StopThenSpawnStartsAGenerationTheOldStopDoesNotEnd) {
  Simulator sim;
  ClientDriver driver(sim);
  int old_turns = 0;
  int new_turns = 0;
  driver.Spawn(2, Stubs(sim, Stub{}, old_turns));
  sim.RunFor(Duration::Millis(10));
  driver.Stop();
  const int old_at_stop = old_turns;
  driver.Spawn(2, Stubs(sim, Stub{}, new_turns));
  sim.RunFor(Duration::Millis(10));
  const int new_at_10ms = new_turns;
  EXPECT_GT(new_at_10ms, 0);
  sim.RunFor(Duration::Millis(10));
  EXPECT_GT(new_turns, new_at_10ms);
  driver.Stop();
  sim.Run();
  EXPECT_EQ(old_turns, old_at_stop);
}

TEST(ClientDriverTest, ClientParkedInCommitAcrossPowerCutExitsOnResume) {
  // The client parks in Commit. A coroutine that then ends cuts the power
  // and stops the clients; on restore a new generation starts, and only
  // then does the parked commit return. The parked client must read its
  // own generation's stop as it resumes and exit.
  Simulator sim;
  rlfault::DurabilityChecker checker;
  ClientDriver driver(sim, &checker);
  rlsim::WaitQueue power(sim);
  int parked_turns = 0;
  int new_turns = 0;
  Stub parks{.gate = &power};
  parks.prepare = [](int) { return Writing(1); };
  driver.Spawn(1, Stubs(sim, parks, parked_turns));
  sim.Spawn([](Simulator& s, ClientDriver& d) -> Task<void> {
    co_await s.Sleep(Duration::Millis(5));
    d.Stop();  // the cut
  }(sim, driver));
  sim.RunFor(Duration::Millis(10));
  driver.Spawn(1, Stubs(sim, Stub{}, new_turns));
  power.NotifyAll();  // the restore
  sim.RunFor(Duration::Millis(10));
  EXPECT_GT(new_turns, 1);
  driver.Stop();
  sim.Run();
  EXPECT_EQ(parked_turns, 1);
  // The parked commit was acked as it returned.
  EXPECT_EQ(checker.model_size(), 1u);
  EXPECT_EQ(checker.pending_count(), 0u);
}

}  // namespace
}  // namespace rlwork
