// A shard's protocol agent: the glue between the coordinator's messages and
// the shard's local storage engine.
//
// The node owns no engine — it borrows the current Database through a
// provider callback, which returns nullptr whenever the shard machine is
// down (power cut, guest crashed, recovery in progress). A down shard
// simply drops frames, exactly like a dead machine; the coordinator's
// timeouts and retransmissions, plus this node's in-doubt resolver, supply
// all the reliability.
//
// Handlers run as spawned tasks so a prepare waiting on log durability
// never head-of-line-blocks an unrelated decision. Anything that dies
// mid-handler (EngineHalted / GuestCrashed) is swallowed silently — no
// vote, no ack — which to the coordinator is indistinguishable from a lost
// frame, the failure it already handles.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/net/network_fabric.h"
#include "src/obs/trace_context.h"
#include "src/shard/wire.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace rlshard {

class ShardNode {
 public:
  struct Stats {
    rlsim::Counter prepares_handled;
    rlsim::Counter votes_yes;
    rlsim::Counter votes_no;
    rlsim::Counter executes_handled;
    rlsim::Counter execute_commits;
    rlsim::Counter decisions_applied;
    rlsim::Counter decision_dupes;  // decision for an already-resolved txn
    rlsim::Counter queries_sent;
    rlsim::Counter resolved_by_query;
    rlsim::Counter machine_deaths;  // handler died with the shard
    rlsim::Counter unexpected_msgs;  // coordinator-bound kinds sent to us
  };

  // Returns the shard's live engine, or nullptr while the machine is down.
  using DbProvider = std::function<rldb::Database*()>;

  ShardNode(rlsim::Simulator& sim, rlnet::NetworkFabric& fabric,
            std::string name, std::string coordinator, DbProvider provider);

  // Spawns the receive and resolver loops. Call exactly once.
  void Start();

  // Stops the periodic resolver (teardown path — without this the resolver's
  // eternal timer keeps the simulator's event queue alive forever). The
  // receive loop needs no stop: it parks on the endpoint, eventless.
  void Stop() { stopped_ = true; }

  const Stats& stats() const { return stats_; }

 private:
  rlsim::Task<void> ReceiveLoop();
  rlsim::Task<void> ResolverLoop();
  // Handlers take the frame's decoded TraceContext so their spans parent
  // under the coordinator-side phase span that caused them (invalid context
  // = untraced run = the spans never open). A handler of ops keeps the
  // delivered `frame` in its own coroutine frame, since `msg.ops` views it,
  // and recycles it when done.
  rlsim::Task<void> HandlePrepare(std::vector<uint8_t> frame, WireFrame msg,
                                  rlobs::TraceContext ctx);
  rlsim::Task<void> HandleExecute(std::vector<uint8_t> frame, WireFrame msg,
                                  rlobs::TraceContext ctx);
  rlsim::Task<void> HandleDecision(uint64_t global_id, bool commit,
                                   rlobs::TraceContext ctx);
  rlsim::Task<void> HandleQueryResp(uint64_t global_id, QueryAnswer answer,
                                    rlobs::TraceContext ctx);
  // Begins a local txn, applies the wire ops, returns the txn id or 0 when
  // a lock timeout already aborted it.
  rlsim::Task<uint64_t> ApplyOps(rldb::Database& db, const WireOps& ops);
  void Reply(const WireMessage& msg, const rlobs::TraceContext& ctx = {});

  rlsim::Simulator& sim_;
  rlnet::NetworkFabric& fabric_;
  rlnet::Endpoint& endpoint_;
  std::string name_;
  std::string coordinator_;
  DbProvider provider_;
  bool started_ = false;
  bool stopped_ = false;

  // Global ids seen in doubt by the previous resolver round; only these are
  // queried this round (one-interval grace period).
  std::set<uint64_t> doubt_last_round_;

  Stats stats_;
};

}  // namespace rlshard
