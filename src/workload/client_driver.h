// One client driver for every workload.
//
// A workload is a transaction generator: it makes one TxnSource per client,
// and ClientDriver calls that source once per transaction. The driver owns
// what every client needs: stopping a generation of clients, ending a
// client whose machine died, the counters and latency histogram, and the
// checker protocol (OnCommitAttempt before the commit, then OnCommitAcked
// or OnAborted; nothing for an unknown outcome, which the post-recovery
// verify resolves). A generator keeps its seed formula, think pauses, token
// rule and per-client state.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/db/database.h"
#include "src/faults/durability_checker.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace rlwork {

// How a transaction's commit ended, as its client saw it.
enum class Outcome { kCommitted, kAborted, kUnknown };

// One client turn up to the commit point.
struct Txn {
  enum State {
    kReady,    // the driver commits it
    kAborted,  // aborted before its commit point (a lock timeout)
    kSkipped,  // no transaction this turn
  };
  State state = kReady;
  uint64_t token = 0;  // checker token; 0 keeps it out of the checker
  std::vector<rlfault::TrackedWrite> writes = {};
  size_t kind = 0;  // counted in Stats::committed_by_kind on commit
};

// One client's transactions. Each turn the driver calls PauseBefore,
// Prepare, Commit (for a ready transaction only) and PauseAfter. A nullopt
// pause sleeps nothing; a zero one still yields.
class TxnSource {
 public:
  // Every client RNG is seeded here, by its generator's seed formula.
  explicit TxnSource(uint64_t seed) : rng_(seed) {}
  virtual ~TxnSource() = default;
  TxnSource(const TxnSource&) = delete;
  TxnSource& operator=(const TxnSource&) = delete;

  virtual std::optional<rlsim::Duration> PauseBefore() { return std::nullopt; }
  virtual rlsim::Task<Txn> Prepare() = 0;
  // Commits what the last Prepare made ready.
  virtual rlsim::Task<Outcome> Commit() = 0;
  virtual std::optional<rlsim::Duration> PauseAfter() { return std::nullopt; }

 protected:
  rlsim::Rng rng_;
};

// An exponential pause with mean `mean`; none, and no draw, for zero.
std::optional<rlsim::Duration> ExponentialPause(rlsim::Rng& rng,
                                                rlsim::Duration mean);

// A client of one engine: Prepare opens txn_ on db_, Commit commits it.
class EngineClient : public TxnSource {
 public:
  EngineClient(rldb::Database& db, uint64_t seed)
      : TxnSource(seed), db_(db) {}

  rlsim::Task<Outcome> Commit() override;

 protected:
  rldb::Database& db_;
  uint64_t txn_ = 0;
};

// Runs generations of clients. A client parked in a dead engine reads the
// driver's stop state when it resumes, so the driver must outlive its
// clients: declare it beside the workload, not in a coroutine that ends
// first.
class ClientDriver {
 public:
  static constexpr size_t kKinds = 3;  // Txn::kind values

  struct Stats {
    rlsim::Counter committed;
    rlsim::Counter aborted;         // before or at the commit point
    rlsim::Counter unknown;         // e.g. the 2PC coordinator died
    rlsim::Counter machine_deaths;  // clients ended by a crash or power cut
    std::array<rlsim::Counter, kKinds> committed_by_kind;
    // ns, from the end of PauseBefore to the commit's outcome, any outcome.
    rlsim::Histogram txn_latency;
  };

  using NewClient = std::function<std::unique_ptr<TxnSource>(int client_id)>;
  // Runs one client; sees what the driver lets through (all but a machine
  // death).
  using Wrap = std::function<rlsim::Task<void>(rlsim::Task<void> client)>;

  explicit ClientDriver(rlsim::Simulator& sim,
                        rlfault::DurabilityChecker* checker = nullptr)
      : sim_(sim), checker_(checker) {}
  // Its clients hold its address.
  ClientDriver(const ClientDriver&) = delete;
  ClientDriver& operator=(const ClientDriver&) = delete;

  // Starts a generation: clients first_id.. first_id + clients - 1. No
  // earlier Stop() ends it.
  void Spawn(int clients, const NewClient& make, int first_id = 0,
             const Wrap& wrap = nullptr);
  // Ends every client spawned so far, each after its current turn.
  void Stop() { stopped_through_ = generation_; }

  Stats& stats() { return stats_; }
  void ResetStats() { stats_ = Stats{}; }

 private:
  rlsim::Task<void> Run(std::unique_ptr<TxnSource> client,
                        uint64_t generation);
  void Record(const Txn& txn, Outcome outcome);

  rlsim::Simulator& sim_;
  rlfault::DurabilityChecker* checker_;
  Stats stats_;
  uint64_t generation_ = 0;  // the latest Spawn's
  uint64_t stopped_through_ = 0;  // Stop() covered every generation up to it
};

}  // namespace rlwork
