#include "src/workload/tpcc_lite.h"

#include <utility>

#include "src/sim/check.h"

namespace rlwork {

using rldb::Database;
using rldb::DbStatus;
using rlfault::TrackedWrite;
using rlsim::Duration;
using rlsim::Task;

uint64_t MakeKey(Table table, uint64_t warehouse, uint64_t district,
                 uint64_t id) {
  return (static_cast<uint64_t>(table) << 56) | (warehouse << 44) |
         (district << 36) | (id & 0xFFFFFFFFFull);
}

std::vector<uint8_t> RowValue(uint32_t value_bytes, uint64_t key,
                              uint64_t seed) {
  std::vector<uint8_t> v(value_bytes);
  uint64_t state = key * 0x9E3779B97f4A7C15ULL ^ seed;
  for (size_t i = 0; i < v.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    v[i] = static_cast<uint8_t>(state >> 56);
  }
  return v;
}

TpccLite::TpccLite(rlsim::Simulator& /*sim*/, TpccConfig config)
    : config_(config),
      mix_({config.new_order_weight, config.payment_weight,
            config.order_status_weight, config.delivery_weight,
            config.stock_level_weight}) {}

Task<void> TpccLite::LoadInitial(Database& db) {
  const uint32_t value_bytes = db.options().profile.value_bytes;
  for (uint64_t w = 0; w < config_.warehouses; ++w) {
    for (uint64_t d = 0; d < config_.districts_per_warehouse; ++d) {
      const uint64_t txn = db.Begin();
      const uint64_t dk = MakeKey(Table::kDistrict, w, d, 0);
      RL_CHECK(co_await db.Put(txn, dk, RowValue(value_bytes, dk, 0)) ==
               DbStatus::kOk);
      for (uint64_t c = 0; c < config_.customers_per_district; ++c) {
        const uint64_t ck = MakeKey(Table::kCustomer, w, d, c);
        RL_CHECK(co_await db.Put(txn, ck, RowValue(value_bytes, ck, 0)) ==
                 DbStatus::kOk);
      }
      RL_CHECK(co_await db.Commit(txn) == DbStatus::kOk);
    }
    // Stock is per-warehouse.
    for (uint64_t base = 0; base < config_.items;
         base += 500) {  // chunked bulk transactions
      const uint64_t txn = db.Begin();
      const uint64_t end = std::min<uint64_t>(base + 500, config_.items);
      for (uint64_t i = base; i < end; ++i) {
        const uint64_t sk = MakeKey(Table::kStock, w, 0, i);
        RL_CHECK(co_await db.Put(txn, sk, RowValue(value_bytes, sk, 0)) ==
                 DbStatus::kOk);
      }
      RL_CHECK(co_await db.Commit(txn) == DbStatus::kOk);
    }
  }
}

class TpccLite::Client : public EngineClient {
 public:
  Client(TpccLite& w, Database& db, int id)
      : EngineClient(db, static_cast<uint64_t>(id) * 7919 + 101),
        w_(w),
        cfg_(w.config_),
        value_bytes_(db.options().profile.value_bytes),
        // Per-client id spaces keep order/history inserts conflict-free.
        order_seq_(static_cast<uint64_t>(id) << 22),
        history_seq_(static_cast<uint64_t>(id) << 22) {}

  std::optional<Duration> PauseBefore() override {
    return ExponentialPause(rng_, cfg_.think_time);
  }

  Task<Txn> Prepare() override {
    switch (w_.mix_.Next(rng_)) {
      case 0:
        return NewOrder();
      case 1:
        return Payment(/*history=*/true);
      case 2:
        return OrderStatus();
      case 3:
        return Payment(/*history=*/false);  // delivery
      default:
        return StockLevel();
    }
  }

 private:
  Task<Txn> NewOrder();
  // Payment rewrites a customer and inserts a history row; delivery only
  // rewrites the customer.
  Task<Txn> Payment(bool history);
  Task<Txn> OrderStatus();
  Task<Txn> StockLevel();

  // Writes `key`'s row image for `seed` and tracks it; false on a lock
  // timeout.
  Task<bool> Put(uint64_t key, uint64_t seed,
                 std::vector<TrackedWrite>& writes) {
    const auto value = RowValue(value_bytes_, key, seed);
    const DbStatus st = co_await db_.Put(txn_, key, value);
    if (st != DbStatus::kOk) {
      co_return false;
    }
    writes.push_back(TrackedWrite{.key = key, .value = value});
    co_return true;
  }

  TpccLite& w_;
  const TpccConfig& cfg_;
  const uint32_t value_bytes_;
  uint64_t order_seq_;
  uint64_t history_seq_;
};

Task<Txn> TpccLite::Client::NewOrder() {
  const uint64_t w = rng_.NextBelow(cfg_.warehouses);
  const uint64_t d = rng_.NextBelow(cfg_.districts_per_warehouse);
  const uint64_t c = rng_.NextBelow(cfg_.customers_per_district);
  const uint64_t n_items = 5 + rng_.NextBelow(11);  // 5..15
  const uint64_t seed = rng_.Next();
  const uint64_t token = w_.next_token_++;

  txn_ = db_.Begin();
  std::vector<TrackedWrite> writes;
  // Read customer; read+update the (hot) district row.
  if (co_await db_.Get(txn_, MakeKey(Table::kCustomer, w, d, c), nullptr) ==
      DbStatus::kLockTimeout) {
    co_return Txn{.state = Txn::kAborted};
  }
  const uint64_t dk = MakeKey(Table::kDistrict, w, d, 0);
  if (co_await db_.Get(txn_, dk, nullptr) == DbStatus::kLockTimeout) {
    co_return Txn{.state = Txn::kAborted};
  }
  if (!co_await Put(dk, seed, writes)) {
    co_return Txn{.state = Txn::kAborted};
  }

  // Items: read + update stock, insert order line. Items are drawn with
  // replacement, so a stock row may be written twice; the checker keeps the
  // last write per key.
  const uint64_t order_id = order_seq_++;
  for (uint64_t i = 0; i < n_items; ++i) {
    const uint64_t item = rng_.NextBelow(cfg_.items);
    const uint64_t sk = MakeKey(Table::kStock, w, 0, item);
    if (co_await db_.Get(txn_, sk, nullptr) == DbStatus::kLockTimeout) {
      co_return Txn{.state = Txn::kAborted};
    }
    if (!co_await Put(sk, seed + i, writes)) {
      co_return Txn{.state = Txn::kAborted};
    }
    if (!co_await Put(MakeKey(Table::kOrderLine, w, d, order_id * 16 + i),
                      seed ^ i, writes)) {
      co_return Txn{.state = Txn::kAborted};
    }
  }
  if (!co_await Put(MakeKey(Table::kOrder, w, d, order_id), seed, writes)) {
    co_return Txn{.state = Txn::kAborted};
  }
  co_return Txn{.token = token, .writes = std::move(writes), .kind = kNewOrder};
}

Task<Txn> TpccLite::Client::Payment(bool history) {
  const uint64_t w = rng_.NextBelow(cfg_.warehouses);
  const uint64_t d = rng_.NextBelow(cfg_.districts_per_warehouse);
  const uint64_t c = rng_.NextBelow(cfg_.customers_per_district);
  const uint64_t seed = rng_.Next();
  const uint64_t token = w_.next_token_++;

  txn_ = db_.Begin();
  std::vector<TrackedWrite> writes;
  const uint64_t ck = MakeKey(Table::kCustomer, w, d, c);
  if (co_await db_.Get(txn_, ck, nullptr) == DbStatus::kLockTimeout) {
    co_return Txn{.state = Txn::kAborted};
  }
  if (!co_await Put(ck, seed, writes)) {
    co_return Txn{.state = Txn::kAborted};
  }
  if (history && !co_await Put(MakeKey(Table::kHistory, w, d, history_seq_++),
                               seed, writes)) {
    co_return Txn{.state = Txn::kAborted};
  }
  co_return Txn{.token = token, .writes = std::move(writes), .kind = kPayment};
}

Task<Txn> TpccLite::Client::OrderStatus() {
  const uint64_t w = rng_.NextBelow(cfg_.warehouses);
  const uint64_t d = rng_.NextBelow(cfg_.districts_per_warehouse);
  const uint64_t c = rng_.NextBelow(cfg_.customers_per_district);
  txn_ = db_.Begin();
  if (co_await db_.Get(txn_, MakeKey(Table::kCustomer, w, d, c), nullptr) ==
      DbStatus::kLockTimeout) {
    co_return Txn{.state = Txn::kAborted};
  }
  co_return Txn{.kind = kReadOnly};
}

Task<Txn> TpccLite::Client::StockLevel() {
  const uint64_t w = rng_.NextBelow(cfg_.warehouses);
  txn_ = db_.Begin();
  for (int i = 0; i < 8; ++i) {
    const uint64_t item = rng_.NextBelow(cfg_.items);
    if (co_await db_.Get(txn_, MakeKey(Table::kStock, w, 0, item), nullptr) ==
        DbStatus::kLockTimeout) {
      co_return Txn{.state = Txn::kAborted};
    }
  }
  co_return Txn{.kind = kReadOnly};
}

ClientDriver::NewClient TpccLite::Clients(Database& db) {
  return [this, &db](int id) {
    return std::make_unique<Client>(*this, db, id);
  };
}

}  // namespace rlwork
