#include "src/shard/txn_coordinator.h"

#include <utility>

#include "src/db/errors.h"
#include "src/sim/check.h"

namespace rlshard {

namespace {

// Decision retransmission cadence and budget. Exhausting the budget is not a
// protocol failure — the shard's in-doubt resolver takes over.
constexpr rlsim::Duration kDecisionResendInterval =
    rlsim::Duration::Millis(100);
constexpr int kDecisionResendMax = 30;

}  // namespace

std::string ToString(TxnOutcome outcome) {
  switch (outcome) {
    case TxnOutcome::kCommitted:
      return "committed";
    case TxnOutcome::kAborted:
      return "aborted";
    case TxnOutcome::kUnknown:
      return "unknown";
  }
  return "invalid";
}

TxnCoordinator::TxnCoordinator(rlsim::Simulator& sim,
                               rlnet::NetworkFabric& fabric, std::string name,
                               std::vector<std::string> shard_endpoints,
                               rlstor::BlockDevice& decision_dev,
                               rldb::EngineProfile decision_profile,
                               CoordinatorOptions options)
    : sim_(sim),
      fabric_(fabric),
      endpoint_(fabric.CreateEndpoint(name)),
      name_(std::move(name)),
      shards_(std::move(shard_endpoints)),
      dlog_(sim, decision_dev, decision_profile),
      options_(options) {
  RL_CHECK_MSG(shards_.size() <= kMaxShards,
               "TxnCoordinator: " << shards_.size()
                                  << " shards exceed the vote bitmask's "
                                  << kMaxShards);
  for (size_t i = 0; i < shards_.size(); ++i) {
    shard_index_[shards_[i]] = i;
  }
}

rlsim::Task<void> TxnCoordinator::Start() {
  co_await dlog_.Recover();
  alive_ = true;
  if (!loop_started_) {
    loop_started_ = true;
    sim_.Spawn(ReceiveLoop(), name_ + "-recv");
  }
}

void TxnCoordinator::SendToShard(size_t shard, const WireMessage& msg,
                                 const rlobs::TraceContext& ctx) {
  // The trace context rides in the frame extension, never the payload: an
  // invalid context (untraced run) encodes to an empty ext, so the frames a
  // shard sees are byte-identical with tracing on or off.
  const std::string& to = shards_[shard];
  fabric_.Send(name_, to, EncodeMessage(msg, fabric_.TakeBuffer(name_, to)),
               ctx.Encode());
}

rlsim::Task<TxnOutcome> TxnCoordinator::Execute(uint64_t global_id,
                                                std::vector<ShardOps> parts,
                                                uint64_t parent_span) {
  if (!alive_ || parts.empty()) {
    co_return TxnOutcome::kUnknown;
  }
  RL_CHECK_MSG(pending_.find(global_id) == pending_.end(),
               "global id " << global_id << " reused while in flight");
  for (const ShardOps& part : parts) {
    RL_CHECK_MSG(part.shard < shards_.size(),
                 "Execute: no shard " << part.shard);
  }
  stats_.started.Add();
  const uint64_t epoch = epoch_;
  const rlsim::TimePoint start = sim_.now();
  // Root of the transaction's causal tree; every frame this Execute (and its
  // pusher) sends carries a TraceContext pointing back into it, so shard and
  // replica handler spans assemble under this root across the whole fleet.
  rlsim::SpanScope span(sim_, name_, "2pc-execute",
                        static_cast<int64_t>(global_id), parent_span);
  const rlobs::TraceContext root_ctx{span.id(), span.id(), start.nanos()};

  const PendingMap::iterator entry =
      pending_pool_
          .TryEmplace(pending_, global_id,
                      [](Pending& reused) {
                        std::unique_ptr<rlsim::WaitQueue> wake =
                            std::move(reused.wake);
                        reused = Pending{};
                        reused.wake = std::move(wake);
                      })
          .first;
  Pending& p = entry->second;
  if (p.wake == nullptr) {
    p.wake = std::make_unique<rlsim::WaitQueue>(sim_);
  }
  p.single = parts.size() == 1;
  (p.single ? stats_.single_shard : stats_.cross_shard).Add();

  uint64_t prep_span = 0;
  if (p.single) {
    WireMessage req = WireMessage::Make(MsgType::kExecuteReq, global_id);
    req.ops = std::move(parts[0].ops);
    SendToShard(parts[0].shard, req, root_ctx);
  } else {
    // The prepare phase span covers fan-out *and* the vote wait below, so
    // its critical-path share is "time until the slowest prepare resolved",
    // with the shard-side prepare spans as its children.
    prep_span = sim_.EmitSpanBegin(name_, "2pc-prepare",
                                   static_cast<int64_t>(global_id), span.id());
    const rlobs::TraceContext prep_ctx{
        span.id(), prep_span != 0 ? prep_span : span.id(), start.nanos()};
    for (ShardOps& part : parts) {
      p.votes_outstanding |= Bit(part.shard);
      WireMessage req = WireMessage::Make(MsgType::kPrepareReq, global_id);
      req.ops = std::move(part.ops);
      SendToShard(part.shard, req, prep_ctx);
    }
  }
  sim_.Schedule(options_.vote_timeout,
                [this, global_id] { OnVoteTimeout(global_id); });

  // Wait for resolution: every vote in / fast-path response / a no-vote /
  // timeout / crash. `p` stays valid across waits — Crash() marks entries
  // done instead of erasing them, and only this coroutine erases its own.
  while (!p.done && !p.vote_no && !p.timed_out && !p.resp_received &&
         !(p.single ? false : p.votes_outstanding == 0)) {
    co_await p.wake->Wait();
  }
  sim_.EmitSpanEnd(prep_span, name_, "2pc-prepare");

  TxnOutcome outcome;
  if (p.done) {
    outcome = TxnOutcome::kUnknown;  // crashed out from under us
  } else if (p.single) {
    if (p.resp_received) {
      // rapicheck: ack-ok (the shard's Commit made the transaction durable
      // before it sent kExecuteResp; the durability point is on the shard)
      outcome = p.resp_commit ? TxnOutcome::kCommitted : TxnOutcome::kAborted;
    } else {
      // Timed out: the response frame may be lost but the shard may well
      // have committed. Unknown, never "aborted".
      outcome = TxnOutcome::kUnknown;
    }
  } else if (p.vote_no || p.timed_out) {
    // Presumed abort: no log write. Push the abort so prepared participants
    // release locks promptly; stragglers recover via kQuery.
    outcome = TxnOutcome::kAborted;
    StartPush(global_id, /*commit=*/false, parts, root_ctx);
  } else {
    // Unanimous yes. The decision exists once (and only once) its record is
    // durable; only then may the client be acked.
    const uint64_t decide_span = sim_.EmitSpanBegin(
        name_, "2pc-decide", static_cast<int64_t>(global_id), span.id());
    bool logged = false;
    try {
      co_await dlog_.LogCommit(global_id);
      logged = true;
    } catch (const rldb::EngineHalted&) {
      // Device died mid-write. The record may or may not have landed; either
      // way no ack was sent, so both futures are consistent: a later
      // recovery either finds the commit record (commit stands) or does not
      // (presumed abort).
    }
    sim_.EmitSpanEnd(decide_span, name_, "2pc-decide");
    if (!logged || epoch_ != epoch) {
      outcome = TxnOutcome::kUnknown;
    } else {
      outcome = TxnOutcome::kCommitted;
      StartPush(global_id, /*commit=*/true, parts, root_ctx);
    }
  }

  pending_pool_.Erase(pending_, entry);
  switch (outcome) {
    case TxnOutcome::kCommitted:
      stats_.committed.Add();
      break;
    case TxnOutcome::kAborted:
      stats_.aborted.Add();
      break;
    case TxnOutcome::kUnknown:
      stats_.unknown.Add();
      break;
  }
  stats_.txn_latency.RecordDuration(sim_.now() - start);
  co_return outcome;
}

void TxnCoordinator::StartPush(uint64_t global_id, bool commit,
                               const std::vector<ShardOps>& parts,
                               const rlobs::TraceContext& ctx) {
  Push& push =
      push_pool_
          .TryEmplace(pushes_, global_id, [](Push& reused) { reused = {}; })
          .first->second;
  push.commit = commit;
  push.ctx = ctx;
  for (const ShardOps& part : parts) {
    push.unacked |= Bit(part.shard);
  }
  sim_.Spawn(PusherTask(global_id, epoch_));
}

rlsim::Task<void> TxnCoordinator::PusherTask(uint64_t global_id,
                                             uint64_t epoch) {
  for (int round = 0; round < kDecisionResendMax; ++round) {
    if (epoch_ != epoch) {
      co_return;  // crash wiped the push table; do not recreate state
    }
    auto it = pushes_.find(global_id);
    if (it == pushes_.end() || it->second.unacked == 0) {
      break;
    }
    const WireMessage msg = WireMessage::Make(MsgType::kDecision, global_id,
                                              it->second.commit ? 1 : 0);
    for (size_t shard = 0; shard < shards_.size(); ++shard) {
      if ((it->second.unacked & Bit(shard)) == 0) {
        continue;
      }
      SendToShard(shard, msg, it->second.ctx);
      if (round > 0) {
        stats_.decision_resends.Add();
      }
    }
    co_await sim_.Sleep(kDecisionResendInterval);
  }
  if (epoch_ == epoch) {
    // Budget exhausted or fully acked; unreached shards will pull the
    // outcome through the query protocol.
    if (auto it = pushes_.find(global_id); it != pushes_.end()) {
      push_pool_.Erase(pushes_, it);
    }
  }
}

void TxnCoordinator::OnVoteTimeout(uint64_t global_id) {
  auto it = pending_.find(global_id);
  if (it == pending_.end() || it->second.done) {
    return;
  }
  it->second.timed_out = true;
  stats_.vote_timeouts.Add();
  it->second.wake->NotifyAll();
}

rlsim::Task<void> TxnCoordinator::ReceiveLoop() {
  while (true) {
    rlnet::Message raw = co_await endpoint_.Receive();
    // A dead coordinator drops everything on the floor.
    if (alive_) {
      HandleMessage(raw);
    }
    fabric_.Recycle(raw.from, raw.to, std::move(raw.payload));
  }
}

void TxnCoordinator::HandleMessage(const rlnet::Message& raw) {
  WireFrame msg;
  if (!DecodeMessage(raw.payload, &msg)) {
    return;
  }
  auto shard_it = shard_index_.find(raw.from);
  if (shard_it == shard_index_.end()) {
    return;  // not a shard we know
  }
  const size_t shard = shard_it->second;

  switch (msg.type) {
    case MsgType::kVote: {
      auto it = pending_.find(msg.global_id);
      if (it == pending_.end() || it->second.done || it->second.single) {
        return;  // decision already taken; pusher/query handles the shard
      }
      Pending& p = it->second;
      if (msg.flag != 0) {
        p.votes_outstanding &= ~Bit(shard);
        if (p.votes_outstanding == 0) {
          p.wake->NotifyAll();
        }
      } else {
        p.vote_no = true;
        stats_.votes_no.Add();
        p.wake->NotifyAll();
      }
      return;
    }
    case MsgType::kExecuteResp: {
      auto it = pending_.find(msg.global_id);
      if (it == pending_.end() || it->second.done || !it->second.single) {
        return;
      }
      it->second.resp_received = true;
      it->second.resp_commit = msg.flag != 0;
      it->second.wake->NotifyAll();
      return;
    }
    case MsgType::kDecisionAck: {
      auto it = pushes_.find(msg.global_id);
      if (it != pushes_.end()) {
        it->second.unacked &= ~Bit(shard);
        if (it->second.commit && it->second.unacked == 0) {
          dlog_.Forget(msg.global_id);
        }
      }
      return;
    }
    case MsgType::kQuery: {
      QueryAnswer answer;
      if (dlog_.IsCommitted(msg.global_id)) {
        answer = QueryAnswer::kCommit;
      } else {
        auto it = pending_.find(msg.global_id);
        const bool in_flight = it != pending_.end() && !it->second.done;
        answer = in_flight ? QueryAnswer::kPending : QueryAnswer::kAbort;
      }
      stats_.queries_answered.Add();
      // Echo the querying shard's trace context so its resolution span
      // parents under the shard's query root, not a disconnected fragment.
      SendToShard(shard,
                  WireMessage::Make(MsgType::kQueryResp, msg.global_id,
                                    static_cast<uint8_t>(answer)),
                  rlobs::TraceContext::Decode(raw.ext));
      return;
    }
    case MsgType::kPrepareReq:
    case MsgType::kExecuteReq:
    case MsgType::kDecision:
    case MsgType::kQueryResp:
      // Shard-bound kinds arriving at the coordinator: a peer bug, not a
      // silent drop — counted so tests and chaos runs can assert zero.
      stats_.unexpected_msgs.Add();
      return;
  }
}

void TxnCoordinator::Crash() {
  if (!alive_) {
    return;
  }
  alive_ = false;
  ++epoch_;
  stats_.crashes.Add();
  // Resolve every in-flight Execute to kUnknown. Entries are marked rather
  // than erased so waiting coroutines (which hold references) wake safely
  // and erase their own.
  // rapicheck: ordered-ok (this pending_ is the coordinator's std::map, not
  // the unordered fleet_checker member of the same name)
  for (auto& [gid, p] : pending_) {
    if (!p.done) {
      p.done = true;
      p.wake->NotifyAll();
    }
  }
  pushes_.clear();
}

rlsim::Task<void> TxnCoordinator::Shutdown() {
  alive_ = false;
  co_await dlog_.Shutdown();
}

rlsim::Task<void> TxnCoordinator::Recover() {
  RL_CHECK_MSG(!alive_, "Recover() on a live coordinator");
  co_await dlog_.Recover();
  alive_ = true;
}

}  // namespace rlshard
