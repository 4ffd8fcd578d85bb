#include "src/workload/kv_workload.h"

#include "src/sim/check.h"
#include "src/workload/tpcc_lite.h"  // RowValue

namespace rlwork {

using rldb::Database;
using rldb::DbStatus;
using rlsim::Duration;
using rlsim::Task;

KvWorkload::KvWorkload(rlsim::Simulator& /*sim*/, KvConfig config)
    : config_(config), zipf_(config.key_space, config.zipf_theta) {}

Task<void> KvWorkload::Load(Database& db, uint64_t count) {
  const uint32_t value_bytes = db.options().profile.value_bytes;
  for (uint64_t base = 0; base < count; base += 500) {
    const uint64_t txn = db.Begin();
    const uint64_t end = std::min(base + 500, count);
    for (uint64_t k = base; k < end; ++k) {
      RL_CHECK(co_await db.Put(txn, k, RowValue(value_bytes, k, 0)) ==
               DbStatus::kOk);
    }
    RL_CHECK(co_await db.Commit(txn) == DbStatus::kOk);
  }
}

class KvWorkload::Client : public EngineClient {
 public:
  Client(KvWorkload& w, Database& db, int id)
      : EngineClient(db, static_cast<uint64_t>(id) * 31337 + 7), w_(w) {}

  std::optional<Duration> PauseBefore() override {
    return ExponentialPause(rng_, w_.config_.think_time);
  }

  Task<Txn> Prepare() override {
    const uint32_t value_bytes = db_.options().profile.value_bytes;
    txn_ = db_.Begin();
    Txn txn{.token = w_.next_token_++};
    for (uint32_t i = 0; i < w_.config_.ops_per_txn; ++i) {
      const uint64_t key = w_.zipf_.Next(rng_);
      if (rng_.NextDouble() < w_.config_.write_fraction) {
        auto value = RowValue(value_bytes, key, rng_.Next());
        if (co_await db_.Put(txn_, key, value) != DbStatus::kOk) {
          co_return Txn{.state = Txn::kAborted};
        }
        txn.writes.push_back(
            rlfault::TrackedWrite{.key = key, .value = std::move(value)});
      } else if (co_await db_.Get(txn_, key, nullptr) ==
                 DbStatus::kLockTimeout) {
        co_return Txn{.state = Txn::kAborted};
      }
    }
    co_return txn;
  }

 private:
  KvWorkload& w_;
};

ClientDriver::NewClient KvWorkload::Clients(Database& db) {
  return [this, &db](int id) {
    return std::make_unique<Client>(*this, db, id);
  };
}

class LogStress::Client : public EngineClient {
 public:
  Client(Database& db, int id)
      : EngineClient(db, static_cast<uint64_t>(id) + 4242),
        base_(static_cast<uint64_t>(id) << 32) {}

  Task<Txn> Prepare() override {
    txn_ = db_.Begin();
    const uint64_t key = base_ + rng_.NextBelow(1000);
    if (co_await db_.Put(txn_, key,
                         RowValue(db_.options().profile.value_bytes, key,
                                  rng_.Next())) != DbStatus::kOk) {
      co_return Txn{.state = Txn::kAborted};
    }
    co_return Txn{};
  }

 private:
  // Disjoint keys per client: the measurement is pure logging cost.
  const uint64_t base_;
};

ClientDriver::NewClient LogStress::Clients(Database& db) {
  return [&db](int id) { return std::make_unique<Client>(db, id); };
}

}  // namespace rlwork
