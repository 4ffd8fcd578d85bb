// Simple key-value workloads: a zipfian read/write mix (microbenchmarks,
// crash campaigns) and a commit-rate stress of tiny update transactions
// (the synchronous-logging cost experiment). Both are transaction
// generators for ClientDriver.
#pragma once

#include <cstdint>

#include "src/db/database.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workload/client_driver.h"

namespace rlwork {

struct KvConfig {
  uint64_t key_space = 100'000;
  double zipf_theta = 0.8;
  double write_fraction = 0.5;
  // Operations per transaction.
  uint32_t ops_per_txn = 4;
  rlsim::Duration think_time = rlsim::Duration::Micros(100);
};

class KvWorkload {
 public:
  // The simulator is not used: pauses and time belong to the driver.
  KvWorkload(rlsim::Simulator& sim, KvConfig config);

  // Preloads `count` keys.
  rlsim::Task<void> Load(rldb::Database& db, uint64_t count);

  // Clients running the mix on `db`, each after an exponential think pause.
  // Every transaction, read-only ones included, takes a token from one
  // counter shared by all clients.
  ClientDriver::NewClient Clients(rldb::Database& db);

 private:
  class Client;

  KvConfig config_;
  rlsim::ZipfianGenerator zipf_;
  uint64_t next_token_ = 1;
};

// Tiny-transaction commit-rate stress: one update + commit per transaction,
// no think time, no checker tokens. Measures the commit ceiling a
// durability scheme allows.
class LogStress {
 public:
  // Clients on `db`, each updating keys of its own.
  ClientDriver::NewClient Clients(rldb::Database& db);

 private:
  class Client;
};

}  // namespace rlwork
