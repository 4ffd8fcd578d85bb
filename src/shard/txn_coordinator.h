// Two-phase-commit transaction coordinator.
//
// Protocol (presumed abort):
//   * single-shard transactions skip 2PC entirely — one kExecuteReq round
//     trip, the shard commits locally through its own trusted log;
//   * cross-shard transactions fan kPrepareReq out to every participant,
//     wait for unanimous yes-votes (each vote backed by a durable prepare
//     record on that shard), make the COMMIT decision durable in the
//     decision log *before* returning to the client, then push kDecision
//     messages until every participant acks;
//   * any no-vote, vote timeout, or coordinator crash before the decision
//     record is durable aborts the transaction — without logging anything,
//     because absence of a commit record IS the abort decision.
//
// Crash model: Crash() wipes all volatile state (in-flight transactions
// resolve to kUnknown, decision retransmission stops); Recover() rebuilds
// the committed-decision set from the decision log's valid prefix. Shards
// stuck in doubt across a coordinator crash re-learn outcomes through the
// kQuery protocol — answered kCommit only from the durable log, kPending
// only for a transaction the live coordinator is still driving, kAbort
// otherwise.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/db/profile.h"
#include "src/net/network_fabric.h"
#include "src/obs/trace_context.h"
#include "src/shard/decision_log.h"
#include "src/shard/wire.h"
#include "src/sim/node_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"

namespace rlshard {

struct CoordinatorOptions {
  // How long Execute waits for votes (or the fast-path response) before
  // presuming abort. Must comfortably exceed a prepare's worst-case
  // durability latency or healthy transactions start aborting.
  rlsim::Duration vote_timeout = rlsim::Duration::Millis(400);
};

enum class TxnOutcome : uint8_t {
  kCommitted = 0,
  kAborted = 1,
  // The coordinator crashed (or was unreachable) before this client learned
  // a decision. The transaction may still have committed — callers must
  // treat it as unresolved, never as aborted.
  kUnknown = 2,
};

std::string ToString(TxnOutcome outcome);

// One participant's slice of a distributed transaction.
struct ShardOps {
  size_t shard = 0;
  std::vector<WireOp> ops;
};

class TxnCoordinator {
 public:
  struct Stats {
    rlsim::Counter started;
    rlsim::Counter committed;
    rlsim::Counter aborted;
    rlsim::Counter unknown;
    rlsim::Counter single_shard;
    rlsim::Counter cross_shard;
    rlsim::Counter votes_no;
    rlsim::Counter vote_timeouts;
    rlsim::Counter decision_resends;
    rlsim::Counter queries_answered;
    rlsim::Counter crashes;
    rlsim::Counter unexpected_msgs;  // shard-bound kinds sent to us
    rlsim::Histogram txn_latency;  // ns, Execute entry to outcome
  };

  // Votes and acks are tracked in a bitmask with one bit per shard.
  static constexpr size_t kMaxShards = 64;

  // Creates the coordinator's fabric endpoint `name`. `shard_endpoints[i]`
  // is shard i's endpoint; more than kMaxShards of them is a check failure.
  // The decision log lives on `decision_dev`, whose power is managed by the
  // caller (see Crash()/Recover()).
  TxnCoordinator(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
                 std::string name, std::vector<std::string> shard_endpoints,
                 rlstor::BlockDevice& decision_dev,
                 rldb::EngineProfile decision_profile,
                 CoordinatorOptions options = {});

  // Recovers the decision log and starts serving. Must complete before the
  // first Execute.
  rlsim::Task<void> Start();

  // Runs one distributed transaction. `global_id` must be globally unique
  // and never reused (the workload packs client id and sequence number).
  // `parent_span` optionally hangs the transaction's causal tree under a
  // caller-side span (the workload's per-client span), so assembled traces
  // start at the client rather than at the coordinator.
  rlsim::Task<TxnOutcome> Execute(uint64_t global_id,
                                  std::vector<ShardOps> parts,
                                  uint64_t parent_span = 0);

  // Volatile-state death; the caller then takes the decision device's power
  // away. Pending Executes resolve kUnknown, even if their decision write
  // still lands; messages are dropped until Recover().
  void Crash();

  // Restores service after Crash(): caller restores device power, then this
  // rescans the decision log. In-doubt shards re-sync via kQuery.
  rlsim::Task<void> Recover();

  // Stops serving and drains the decision log writer (teardown path — the
  // simulator reclaims the parked receive loop).
  rlsim::Task<void> Shutdown();

  bool alive() const { return alive_; }
  // Decision pushes still being retransmitted (drain hook for tests).
  size_t pushes_outstanding() const { return pushes_.size(); }

  const Stats& stats() const { return stats_; }
  const DecisionLog& decision_log() const { return dlog_; }

 private:
  // Bit i stands for shard i.
  using ShardMask = uint64_t;
  static ShardMask Bit(size_t shard) { return ShardMask{1} << shard; }

  struct Pending {
    bool single = false;            // fast path (kExecuteReq)
    ShardMask votes_outstanding = 0;
    bool vote_no = false;
    bool timed_out = false;
    bool resp_received = false;     // fast path response arrived
    bool resp_commit = false;
    bool done = false;              // crash resolved this txn to kUnknown
    // Kept when the entry's node is recycled (see pending_pool_).
    std::unique_ptr<rlsim::WaitQueue> wake;
  };
  struct Push {
    bool commit = false;
    ShardMask unacked = 0;
    // Trace context of the deciding Execute; retransmitted pushes carry it
    // so late decision spans still land in the transaction's causal tree.
    rlobs::TraceContext ctx;
  };
  using PendingMap = std::map<uint64_t, Pending>;
  using PushMap = std::map<uint64_t, Push>;

  // Map nodes parked for reuse by the next transaction, per table.
  static constexpr size_t kParkedNodes = 256;

  rlsim::Task<void> ReceiveLoop();
  // The vote timeout: a plain event, scheduled by Execute after its sends.
  void OnVoteTimeout(uint64_t global_id);
  rlsim::Task<void> PusherTask(uint64_t global_id, uint64_t epoch);
  void HandleMessage(const rlnet::Message& raw);
  void SendToShard(size_t shard, const WireMessage& msg,
                   const rlobs::TraceContext& ctx = {});
  void StartPush(uint64_t global_id, bool commit,
                 const std::vector<ShardOps>& parts,
                 const rlobs::TraceContext& ctx);

  rlsim::Simulator& sim_;
  rlnet::NetworkFabric& fabric_;
  rlnet::Endpoint& endpoint_;
  std::string name_;
  std::vector<std::string> shards_;
  std::map<std::string, size_t> shard_index_;  // endpoint name -> index
  DecisionLog dlog_;
  CoordinatorOptions options_;

  bool alive_ = false;
  bool loop_started_ = false;
  // Bumped by Crash(); parked pusher tasks from the old incarnation notice
  // the mismatch and exit instead of acting on stale state. (A vote timeout
  // needs no epoch: Crash() marks every pending entry done, and global ids
  // are never reused.)
  uint64_t epoch_ = 0;
  PendingMap pending_;
  rlsim::NodePool<PendingMap> pending_pool_{kParkedNodes};
  PushMap pushes_;
  rlsim::NodePool<PushMap> push_pool_{kParkedNodes};

  Stats stats_;
};

}  // namespace rlshard
