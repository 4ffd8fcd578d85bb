// Regression tests for engine teardown after faults: Database::Close must
// unwind every parked client coroutine (lock waiters, durability waiters,
// dirty-page throttle, pending page reads) so that no frame still
// referencing the engine survives into simulator teardown.
//
// These tests guard against two bugs found by the E8 campaign:
//   * lock waiters resumed by their stale timeout events after the engine
//     was freed (use-after-free into the lock table), and
//   * a commit parked forever on a pending-read completion whose reader
//     unwound with an exception, so its frame outlived the engine it
//     referenced and touched freed memory at simulator destruction.
#include <gtest/gtest.h>

#include <memory>

#include "src/db/database.h"
#include "src/db/errors.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;

struct Fixture {
  Fixture()
      : sim(std::make_unique<Simulator>()),
        cpu(std::make_unique<NativeCpu>(*sim)),
        data(std::make_unique<SimBlockDevice>(
            *sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                    .name = "data"},
            rlstor::MakeDefaultSsd())),
        log(std::make_unique<SimBlockDevice>(
            *sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                    .name = "log"},
            rlstor::MakeDefaultSsd())) {}

  Task<void> OpenDb() {
    DbOptions opts;
    opts.pool_pages = 256;
    opts.journal_pages = 150;
    opts.profile.checkpoint_dirty_pages = 64;
    db = co_await Database::Open(*sim, *cpu, *data, *log, opts);
  }

  std::unique_ptr<Simulator> sim;
  std::unique_ptr<NativeCpu> cpu;
  std::unique_ptr<SimBlockDevice> data;
  std::unique_ptr<SimBlockDevice> log;
  std::unique_ptr<Database> db;
};

TEST(TeardownTest, CloseUnparksDurabilityAndLockWaiters) {
  Fixture f;
  int unwound = 0;
  int still_parked_markers = 0;
  f.sim->Spawn([](Fixture& fx, int& done, int& parked) -> Task<void> {
    co_await fx.OpenDb();
    // Kill the log device: commits can never become durable.
    fx.log->PowerLoss();
    // Client 1 blocks in WaitDurable; clients 2..N queue on client 1's lock.
    for (int i = 0; i < 6; ++i) {
      fx.sim->Spawn([](Fixture& fx2, int& d, int& p) -> Task<void> {
        ++p;
        try {
          const uint64_t txn = fx2.db->Begin();
          std::vector<uint8_t> v(fx2.db->options().profile.value_bytes, 1);
          const DbStatus put = co_await fx2.db->Put(txn, 42, v);
          if (put == DbStatus::kOk) {
            co_await fx2.db->Commit(txn);
          }
        } catch (const EngineHalted&) {
        }
        --p;
        ++d;
      }(fx, done, parked));
    }
    co_await fx.sim->Sleep(Duration::Millis(50));
    co_await fx.db->Close();
    co_await fx.sim->Sleep(Duration::Seconds(2));
  }(f, unwound, still_parked_markers));
  f.sim->Run();
  f.db.reset();
  // All six clients finished one way or another; none still parked.
  EXPECT_EQ(unwound, 6);
  EXPECT_EQ(still_parked_markers, 0);
  // Destroying the simulator with the engine already gone must be safe.
  f.sim.reset();
}

TEST(TeardownTest, PendingReadExceptionReleasesWaiters) {
  Fixture f;
  int finished = 0;
  f.sim->Spawn([](Fixture& fx, int& done) -> Task<void> {
    co_await fx.OpenDb();
    // Populate enough data that reads miss the pool.
    for (uint64_t k = 0; k < 500; ++k) {
      const uint64_t txn = fx.db->Begin();
      std::vector<uint8_t> v(fx.db->options().profile.value_bytes, 2);
      co_await fx.db->Put(txn, k, v);
      co_await fx.db->Commit(txn);
    }
    co_await fx.db->Checkpoint();
    // Force the hot pages out by churning the (small) pool.
    for (uint64_t k = 0; k < 500; ++k) {
      co_await fx.db->ReadCommitted(k, nullptr);
    }
    // Two readers race to the same cold page while the data device dies
    // mid-read: the first reader's exception must resolve the pending-read
    // record so the second unwinds too instead of parking forever.
    for (int i = 0; i < 4; ++i) {
      fx.sim->Spawn([](Fixture& fx2, int& d) -> Task<void> {
        try {
          co_await fx2.db->ReadCommitted(3, nullptr);
        } catch (const EngineHalted&) {
        }
        ++d;
      }(fx, done));
    }
    fx.sim->Schedule(Duration::Micros(10), [&fx] { fx.data->PowerLoss(); });
    co_await fx.sim->Sleep(Duration::Seconds(1));
    co_await fx.db->Close();
  }(f, finished));
  f.sim->Run();
  EXPECT_EQ(finished, 4);
  f.db.reset();
  f.sim.reset();
}

}  // namespace
}  // namespace rldb
