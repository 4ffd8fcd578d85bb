#include "src/workload/fleet_workload.h"

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/workload/tpcc_lite.h"  // RowValue

namespace rlwork {

using rlsim::Task;

namespace {

// In a cross-shard transaction, how many of the ops go to the remote shard;
// the rest stay on the home shard.
constexpr uint32_t kRemoteOps = 1;

}  // namespace

Task<void> FleetWorkload::RunClient(rlshard::TxnCoordinator& coordinator,
                                    const rlshard::ShardDirectory& directory,
                                    int client_id, const bool* stop,
                                    rlfault::FleetChecker* checker) {
  rlsim::Rng rng(seed_ ^ ((static_cast<uint64_t>(client_id) + 1) *
                          0x9e3779b97f4a7c15ull));
  const size_t shards = directory.shards();
  const size_t home = static_cast<size_t>(client_id) % shards;
  const std::string client_name = "client-" + std::to_string(client_id);
  uint64_t seq = 0;

  const auto range_key = [&](size_t shard) {
    const uint64_t lo = directory.RangeBegin(shard);
    return lo + rng.NextBelow(directory.RangeEnd(shard) - lo);
  };

  while (!*stop) {
    if (!coordinator.alive()) {
      // No point piling unknowns onto a dead coordinator; back off until
      // the fault schedule revives it.
      co_await sim_.Sleep(rlsim::Duration::Millis(10));
      continue;
    }
    const uint64_t global_id =
        (static_cast<uint64_t>(client_id) + 1) << 40 | ++seq;

    const bool want_cross =
        shards > 1 && rng.NextDouble() < config_.cross_shard_probability;
    const uint32_t remote_ops = want_cross ? kRemoteOps : 0;
    size_t remote_shard = home;
    if (want_cross) {
      remote_shard = (home + 1 + rng.NextBelow(shards - 1)) % shards;
    }

    // Distinct keys per transaction: a duplicate key would make the
    // checker's write list ambiguous about which value should survive.
    std::set<uint64_t> used;
    std::map<size_t, std::vector<rlshard::WireOp>> by_shard;
    std::vector<rlfault::TrackedWrite> tracked;
    for (uint32_t i = 0; i < config_.ops_per_txn; ++i) {
      const size_t shard = i < remote_ops ? remote_shard : home;
      uint64_t key = range_key(shard);
      while (!used.insert(key).second) {
        key = range_key(shard);
      }
      rlshard::WireOp op;
      op.key = key;
      op.value = RowValue(config_.value_bytes, key, rng.Next());
      tracked.push_back(rlfault::TrackedWrite{.key = key,
                                              .is_delete = false,
                                              .value = op.value});
      by_shard[shard].push_back(std::move(op));
    }
    std::vector<rlshard::ShardOps> parts;
    parts.reserve(by_shard.size());
    for (auto& [shard, ops] : by_shard) {
      parts.push_back(rlshard::ShardOps{.shard = shard, .ops = std::move(ops)});
    }
    const bool is_cross = parts.size() > 1;

    stats_.started.Add();
    if (is_cross) {
      stats_.cross_started.Add();
    }
    if (checker != nullptr) {
      checker->OnTxnAttempt(global_id, std::move(tracked));
    }
    const rlsim::TimePoint exec_start = sim_.now();
    // Top of the transaction's causal tree: the coordinator's 2pc-execute
    // span parents under this one, so assembled traces and critical paths
    // start at the client's submit, not at the coordinator's entry.
    rlshard::TxnOutcome outcome;
    {
      rlsim::SpanScope client_span(sim_, client_name, "client-txn",
                                   static_cast<int64_t>(global_id));
      outcome = co_await coordinator.Execute(global_id, std::move(parts),
                                             client_span.id());
    }
    stats_.txn_latency.RecordDuration(sim_.now() - exec_start);
    switch (outcome) {
      case rlshard::TxnOutcome::kCommitted:
        if (checker != nullptr) {
          checker->OnCommitAcked(global_id);
        }
        stats_.committed.Add();
        if (is_cross) {
          stats_.cross_committed.Add();
        }
        break;
      case rlshard::TxnOutcome::kAborted:
        if (checker != nullptr) {
          checker->OnAborted(global_id);
        }
        stats_.aborted.Add();
        if (is_cross) {
          stats_.cross_aborted.Add();
        }
        break;
      case rlshard::TxnOutcome::kUnknown:
        // Leave the checker entry pending: the post-recovery verify promotes
        // it if the decision turns out to have been commit.
        stats_.unknown.Add();
        if (is_cross) {
          stats_.cross_unknown.Add();
        }
        break;
    }
    co_await sim_.Sleep(config_.think_time);
  }
}

}  // namespace rlwork
