#include "src/workload/fleet_workload.h"

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/workload/tpcc_lite.h"  // RowValue

namespace rlwork {

using rlsim::Duration;
using rlsim::Task;

namespace {

// In a cross-shard transaction, how many of the ops go to the remote shard;
// the rest stay on the home shard.
constexpr uint32_t kRemoteOps = 1;

}  // namespace

class FleetWorkload::Client : public TxnSource {
 public:
  Client(FleetWorkload& w, rlshard::TxnCoordinator& coordinator,
         const rlshard::ShardDirectory& directory, int id)
      : TxnSource(w.seed_ ^ ((static_cast<uint64_t>(id) + 1) *
                             0x9e3779b97f4a7c15ull)),
        w_(w),
        coordinator_(coordinator),
        directory_(directory),
        id_(static_cast<uint64_t>(id)),
        home_(static_cast<size_t>(id) % directory.shards()),
        name_("client-" + std::to_string(id)) {}

  Task<Txn> Prepare() override {
    // No point piling unknowns onto a dead coordinator; back off until the
    // fault schedule revives it.
    backoff_ = !coordinator_.alive();
    if (backoff_) {
      co_return Txn{.state = Txn::kSkipped};
    }
    gid_ = (id_ + 1) << 40 | ++seq_;

    const size_t shards = directory_.shards();
    const bool want_cross =
        shards > 1 &&
        rng_.NextDouble() < w_.config_.cross_shard_probability;
    const uint32_t remote_ops = want_cross ? kRemoteOps : 0;
    size_t remote_shard = home_;
    if (want_cross) {
      remote_shard = (home_ + 1 + rng_.NextBelow(shards - 1)) % shards;
    }

    // Distinct keys per transaction. The checker would accept a repeated
    // key (it keeps the last write), but the redraw is part of the RNG
    // sequence every fleet output depends on.
    std::set<uint64_t> used;
    std::map<size_t, std::vector<rlshard::WireOp>> by_shard;
    Txn txn{.token = gid_};
    for (uint32_t i = 0; i < w_.config_.ops_per_txn; ++i) {
      const size_t shard = i < remote_ops ? remote_shard : home_;
      uint64_t key = RangeKey(shard);
      while (!used.insert(key).second) {
        key = RangeKey(shard);
      }
      rlshard::WireOp op;
      op.key = key;
      op.value = RowValue(w_.config_.value_bytes, key, rng_.Next());
      txn.writes.push_back(rlfault::TrackedWrite{
          .key = key, .is_delete = false, .value = op.value});
      by_shard[shard].push_back(std::move(op));
    }
    parts_.clear();
    parts_.reserve(by_shard.size());
    for (auto& [shard, ops] : by_shard) {
      parts_.push_back(
          rlshard::ShardOps{.shard = shard, .ops = std::move(ops)});
    }
    txn.kind = parts_.size() > 1 ? kCrossShard : kSingleShard;
    co_return txn;
  }

  Task<Outcome> Commit() override {
    // Top of the transaction's causal tree: the coordinator's 2pc-execute
    // span parents under this one, so assembled traces and critical paths
    // start at the client's submit, not at the coordinator's entry.
    rlsim::SpanScope span(w_.sim_, name_, "client-txn",
                          static_cast<int64_t>(gid_));
    const rlshard::TxnOutcome outcome =
        co_await coordinator_.Execute(gid_, std::move(parts_), span.id());
    switch (outcome) {
      case rlshard::TxnOutcome::kCommitted:
        co_return Outcome::kCommitted;
      case rlshard::TxnOutcome::kAborted:
        co_return Outcome::kAborted;
      case rlshard::TxnOutcome::kUnknown:
        break;
    }
    co_return Outcome::kUnknown;
  }

  std::optional<Duration> PauseAfter() override {
    if (backoff_) {
      return Duration::Millis(10);
    }
    if (w_.config_.think_time <= Duration::Zero()) {
      return std::nullopt;
    }
    return w_.config_.think_time;
  }

 private:
  uint64_t RangeKey(size_t shard) {
    const uint64_t lo = directory_.RangeBegin(shard);
    return lo + rng_.NextBelow(directory_.RangeEnd(shard) - lo);
  }

  FleetWorkload& w_;
  rlshard::TxnCoordinator& coordinator_;
  const rlshard::ShardDirectory& directory_;
  const uint64_t id_;
  const size_t home_;
  const std::string name_;
  uint64_t seq_ = 0;
  bool backoff_ = false;
  // The transaction Prepare built, for Commit.
  uint64_t gid_ = 0;
  std::vector<rlshard::ShardOps> parts_;
};

ClientDriver::NewClient FleetWorkload::Clients(
    rlshard::TxnCoordinator& coordinator,
    const rlshard::ShardDirectory& directory) {
  return [this, &coordinator, &directory](int id) {
    return std::make_unique<Client>(*this, coordinator, directory, id);
  };
}

}  // namespace rlwork
