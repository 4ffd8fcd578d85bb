// TPC-C-lite: an OLTP workload over the engine's KV interface with the
// transaction mix and access pattern of TPC-C (hot district rows, random
// customer/stock touches, order inserts) scaled to simulation size.
//
// Keys pack (table, warehouse, district, id) into a uint64; values are the
// engine's fixed-size row slots filled from a per-write seed so the
// durability checker can verify exact contents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/db/database.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workload/client_driver.h"

namespace rlwork {

enum class Table : uint8_t {
  kDistrict = 1,
  kCustomer = 2,
  kStock = 3,
  kOrder = 4,
  kOrderLine = 5,
  kHistory = 6,
};

uint64_t MakeKey(Table table, uint64_t warehouse, uint64_t district,
                 uint64_t id);

// Deterministic row image for (key, seed) at the engine's slot size.
std::vector<uint8_t> RowValue(uint32_t value_bytes, uint64_t key,
                              uint64_t seed);

struct TpccConfig {
  uint32_t warehouses = 2;
  uint32_t districts_per_warehouse = 10;
  uint32_t customers_per_district = 60;
  uint32_t items = 2000;
  // Client think/keying time between transactions.
  rlsim::Duration think_time = rlsim::Duration::Micros(300);
  // Transaction mix (TPC-C-ish weights).
  double new_order_weight = 0.45;
  double payment_weight = 0.43;
  double order_status_weight = 0.04;
  double delivery_weight = 0.04;
  double stock_level_weight = 0.04;
};

class TpccLite {
 public:
  // The transaction classes it counts in
  // ClientDriver::Stats::committed_by_kind.
  enum Kind : size_t {
    kNewOrder = 0,
    kPayment = 1,   // payment and delivery
    kReadOnly = 2,  // order-status and stock-level
  };

  // The simulator is not used: pauses and time belong to the driver.
  TpccLite(rlsim::Simulator& sim, TpccConfig config);

  // Populates districts, customers and stock (one bulk transaction per
  // district). Run once on a fresh database.
  rlsim::Task<void> LoadInitial(rldb::Database& db);

  // Clients running the mix on `db`, each after an exponential think pause.
  // Write transactions take their tokens from one counter shared by all
  // clients; read-only ones are not tracked.
  ClientDriver::NewClient Clients(rldb::Database& db);

 private:
  class Client;

  TpccConfig config_;
  rlsim::DiscreteDistribution mix_;
  uint64_t next_token_ = 1;
};

}  // namespace rlwork
