#include "src/shard/shard_node.h"

#include <utility>
#include <vector>

#include "src/db/errors.h"
#include "src/vmm/vm.h"

namespace rlshard {

namespace {

// In-doubt resolver cadence. A prepared transaction is only queried once it
// has been in doubt for a full interval (freshly prepared transactions are
// still being driven by the coordinator — querying them would just earn a
// kPending).
constexpr rlsim::Duration kResolveInterval = rlsim::Duration::Millis(300);

}  // namespace

ShardNode::ShardNode(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
                     std::string name, std::string coordinator,
                     DbProvider provider)
    : sim_(sim),
      fabric_(fabric),
      endpoint_(fabric.CreateEndpoint(name)),
      name_(std::move(name)),
      coordinator_(std::move(coordinator)),
      provider_(std::move(provider)) {}

void ShardNode::Start() {
  RL_CHECK_MSG(!started_, "ShardNode started twice");
  started_ = true;
  sim_.Spawn(ReceiveLoop(), name_ + "-recv");
  sim_.Spawn(ResolverLoop(), name_ + "-resolver");
}

void ShardNode::Reply(const WireMessage& msg, const rlobs::TraceContext& ctx) {
  fabric_.Send(name_, coordinator_,
               EncodeMessage(msg, fabric_.TakeBuffer(name_, coordinator_)),
               ctx.Encode());
}

rlsim::Task<void> ShardNode::ReceiveLoop() {
  while (true) {
    rlnet::Message raw = co_await endpoint_.Receive();
    WireFrame msg;
    // A down machine lets frames fall on the floor.
    if (provider_() == nullptr || !DecodeMessage(raw.payload, &msg) ||
        raw.from != coordinator_) {
      fabric_.Recycle(raw.from, raw.to, std::move(raw.payload));
      continue;
    }
    // Decoded from the out-of-band extension, never the payload: dispatch
    // below must not (and cannot) branch on it.
    const rlobs::TraceContext ctx = rlobs::TraceContext::Decode(raw.ext);
    switch (msg.type) {
      case MsgType::kPrepareReq:
        sim_.Spawn(HandlePrepare(std::move(raw.payload), msg, ctx));
        continue;  // the handler recycles the frame
      case MsgType::kExecuteReq:
        sim_.Spawn(HandleExecute(std::move(raw.payload), msg, ctx));
        continue;
      case MsgType::kDecision:
        sim_.Spawn(HandleDecision(msg.global_id, msg.flag != 0, ctx));
        break;
      case MsgType::kQueryResp:
        sim_.Spawn(HandleQueryResp(msg.global_id,
                                   static_cast<QueryAnswer>(msg.flag), ctx));
        break;
      case MsgType::kVote:
      case MsgType::kExecuteResp:
      case MsgType::kDecisionAck:
      case MsgType::kQuery:
        // Coordinator-bound kinds arriving at a shard: a peer bug, not a
        // silent drop — counted so tests and chaos runs can assert zero.
        stats_.unexpected_msgs.Add();
        break;
    }
    fabric_.Recycle(raw.from, raw.to, std::move(raw.payload));
  }
}

rlsim::Task<uint64_t> ShardNode::ApplyOps(rldb::Database& db,
                                          const WireOps& ops) {
  const uint64_t txn = db.Begin();
  for (const WireOpView op : ops) {
    const rldb::DbStatus st =
        op.is_delete ? co_await db.Remove(txn, op.key)
                     : co_await db.Put(txn, op.key, op.value);
    if (st != rldb::DbStatus::kOk) {
      co_return 0;  // lock timeout: the engine already aborted the txn
    }
  }
  co_return txn;
}

rlsim::Task<void> ShardNode::HandlePrepare(std::vector<uint8_t> frame,
                                           WireFrame msg,
                                           rlobs::TraceContext ctx) {
  stats_.prepares_handled.Add();
  // Child of the coordinator's 2pc-prepare phase span: its duration is this
  // shard's apply + durable-prepare cost as seen from the causal tree.
  rlsim::SpanScope span(sim_, name_, "shard-prepare",
                        static_cast<int64_t>(msg.global_id),
                        ctx.parent_span);
  try {
    rldb::Database* db = provider_();
    if (db == nullptr) {
      co_return;
    }
    const uint64_t txn = co_await ApplyOps(*db, msg.ops);
    bool yes = false;
    if (txn != 0) {
      // The vote is only "yes" once the prepare record is durable — the
      // whole point: a yes vote must survive any subsequent crash.
      yes = (co_await db->Prepare(txn, msg.global_id)) == rldb::DbStatus::kOk;
    }
    (yes ? stats_.votes_yes : stats_.votes_no).Add();
    Reply(WireMessage::Make(MsgType::kVote, msg.global_id, yes ? 1 : 0));
  } catch (const rldb::EngineHalted&) {
    stats_.machine_deaths.Add();  // died before voting: counts as no answer
  } catch (const rlvmm::GuestCrashed&) {
    stats_.machine_deaths.Add();
  }
  fabric_.Recycle(coordinator_, name_, std::move(frame));
}

rlsim::Task<void> ShardNode::HandleExecute(std::vector<uint8_t> frame,
                                           WireFrame msg,
                                           rlobs::TraceContext ctx) {
  stats_.executes_handled.Add();
  rlsim::SpanScope span(sim_, name_, "shard-execute",
                        static_cast<int64_t>(msg.global_id),
                        ctx.parent_span);
  try {
    rldb::Database* db = provider_();
    if (db == nullptr) {
      co_return;
    }
    const uint64_t txn = co_await ApplyOps(*db, msg.ops);
    bool committed = false;
    if (txn != 0) {
      committed = (co_await db->Commit(txn)) == rldb::DbStatus::kOk;
    }
    if (committed) {
      stats_.execute_commits.Add();
    }
    Reply(WireMessage::Make(MsgType::kExecuteResp, msg.global_id,
                            committed ? 1 : 0));
  } catch (const rldb::EngineHalted&) {
    stats_.machine_deaths.Add();
  } catch (const rlvmm::GuestCrashed&) {
    stats_.machine_deaths.Add();
  }
  fabric_.Recycle(coordinator_, name_, std::move(frame));
}

rlsim::Task<void> ShardNode::HandleDecision(uint64_t global_id, bool commit,
                                            rlobs::TraceContext ctx) {
  rlsim::SpanScope span(sim_, name_, "shard-decision",
                        static_cast<int64_t>(global_id), ctx.parent_span);
  try {
    rldb::Database* db = provider_();
    if (db == nullptr) {
      co_return;
    }
    const rldb::DbStatus st = co_await db->ResolveInDoubt(global_id, commit);
    if (st == rldb::DbStatus::kOk) {
      stats_.decisions_applied.Add();
    } else {
      // Already resolved (duplicate push), decision raced an in-progress
      // apply (answered once that commit record is durable), or the
      // prepare never became durable here. All safe to ack: a COMMIT
      // decision only exists for transactions whose prepare this shard
      // made durable before voting yes, and an ack lets the coordinator
      // forget the commit only once this shard's commit is durable.
      stats_.decision_dupes.Add();
    }
    Reply(WireMessage::Make(MsgType::kDecisionAck, global_id));
  } catch (const rldb::EngineHalted&) {
    stats_.machine_deaths.Add();  // no ack; the pusher or resolver re-drives
  } catch (const rlvmm::GuestCrashed&) {
    stats_.machine_deaths.Add();
  }
}

rlsim::Task<void> ShardNode::HandleQueryResp(uint64_t global_id,
                                             QueryAnswer answer,
                                             rlobs::TraceContext ctx) {
  bool commit = false;
  switch (answer) {
    case QueryAnswer::kPending:
      co_return;  // coordinator is still driving it; keep waiting
    case QueryAnswer::kCommit:
      commit = true;
      break;
    case QueryAnswer::kAbort:
      commit = false;  // presumed abort: no durable decision exists
      break;
  }
  // Parented under this shard's own query span (echoed back by the
  // coordinator), closing the resolve round trip in the causal tree.
  rlsim::SpanScope span(sim_, name_, "shard-resolve",
                        static_cast<int64_t>(global_id), ctx.parent_span);
  try {
    rldb::Database* db = provider_();
    if (db == nullptr) {
      co_return;
    }
    const rldb::DbStatus st =
        co_await db->ResolveInDoubt(global_id, commit);
    if (st == rldb::DbStatus::kOk) {
      stats_.resolved_by_query.Add();
    }
  } catch (const rldb::EngineHalted&) {
    stats_.machine_deaths.Add();
  } catch (const rlvmm::GuestCrashed&) {
    stats_.machine_deaths.Add();
  }
}

rlsim::Task<void> ShardNode::ResolverLoop() {
  while (!stopped_) {
    co_await sim_.Sleep(kResolveInterval);
    if (stopped_) {
      co_return;
    }
    rldb::Database* db = provider_();
    if (db == nullptr) {
      doubt_last_round_.clear();  // down: start the grace period over
      continue;
    }
    const std::vector<uint64_t> in_doubt = db->InDoubtGlobalIds();
    for (const uint64_t gid : in_doubt) {
      if (doubt_last_round_.count(gid) > 0) {
        stats_.queries_sent.Add();
        // Root of a resolve round trip: the coordinator echoes this context
        // on its kQueryResp, so the eventual shard-resolve span parents
        // under the query that caused it.
        const uint64_t qspan = sim_.EmitSpanBegin(
            name_, "shard-query", static_cast<int64_t>(gid));
        Reply(WireMessage::Make(MsgType::kQuery, gid),
              rlobs::TraceContext{qspan, qspan, sim_.now().nanos()});
        sim_.EmitSpanEnd(qspan, name_, "shard-query");
      }
    }
    doubt_last_round_ = std::set<uint64_t>(in_doubt.begin(), in_doubt.end());
  }
}

}  // namespace rlshard
