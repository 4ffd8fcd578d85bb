// Two-phase commit over the fleet topology: wire protocol, coordinator
// state machine (commit / abort / fast-path), presumed-abort recovery from
// a torn coordinator log, and a 200-seed crash-point sweep that kills
// coordinators and shards across 2PC message boundaries and checks the
// fleet atomicity oracle after every schedule.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/faults/fleet_checker.h"
#include "src/harness/fleet_testbed.h"
#include "src/shard/shard_directory.h"
#include "src/shard/wire.h"
#include "src/sim/simulator.h"
#include "src/workload/fleet_workload.h"
#include "src/workload/tpcc_lite.h"

namespace rlharness {
namespace {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlshard::MsgType;
using rlshard::ShardOps;
using rlshard::TxnOutcome;
using rlshard::WireMessage;
using rlshard::WireOp;

FleetOptions SmallFleet(size_t shards) {
  FleetOptions opt;
  opt.shards = shards;
  opt.key_space = 1 << 20;
  opt.shard.mode = DeploymentMode::kRapiLog;
  opt.shard.disks = DiskSetup::kSharedHdd;
  opt.shard.db.profile = rldb::PostgresLikeProfile();
  opt.shard.db.pool_pages = 512;
  opt.shard.db.journal_pages = 300;
  opt.shard.db.profile.checkpoint_dirty_pages = 128;
  return opt;
}

// One WireOp writing `key` with a deterministic value.
WireOp Op(uint64_t key) {
  WireOp op;
  op.key = key;
  // The engine stores fixed-size row slots; match the profile's value size.
  op.value = rlwork::RowValue(96, key, key * 31);
  return op;
}

// Reads `key` on the shard that owns it; true if present with Op(key)'s
// value.
Task<bool> HasKey(FleetTestbed& fleet, uint64_t key) {
  rldb::Database* db = fleet.shard_db(fleet.directory().ShardOf(key));
  RL_CHECK(db != nullptr);
  std::vector<uint8_t> got;
  const bool found = co_await db->ReadCommitted(key, &got);
  co_return found && got == Op(key).value;
}

// --- Wire protocol -----------------------------------------------------------

TEST(WireTest, RoundTripsAllFields) {
  WireMessage msg = WireMessage::Make(MsgType::kPrepareReq, 0x1234'5678'9abcull,
                                      1);
  msg.ops.push_back(Op(7));
  msg.ops.push_back(WireOp{.is_delete = true, .key = 99, .value = {}});

  const std::vector<uint8_t> bytes = EncodeMessage(msg);
  WireMessage back;
  ASSERT_TRUE(DecodeMessage(bytes, &back));
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.global_id, msg.global_id);
  EXPECT_EQ(back.flag, msg.flag);
  ASSERT_EQ(back.ops.size(), 2u);
  EXPECT_EQ(back.ops[0].key, 7u);
  EXPECT_EQ(back.ops[0].value, msg.ops[0].value);
  EXPECT_TRUE(back.ops[1].is_delete);
}

TEST(WireTest, RejectsGarbage) {
  WireMessage out;
  EXPECT_FALSE(DecodeMessage(std::vector<uint8_t>{}, &out));
  EXPECT_FALSE(DecodeMessage(std::vector<uint8_t>{0xff, 0x01}, &out));
  // Truncated valid message.
  WireMessage msg = WireMessage::Make(MsgType::kVote, 42, 1);
  std::vector<uint8_t> bytes = EncodeMessage(msg);
  bytes.pop_back();
  EXPECT_FALSE(DecodeMessage(bytes, &out));
  // Trailing garbage.
  bytes = EncodeMessage(msg);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeMessage(bytes, &out));
}

TEST(DirectoryTest, PartitionsKeySpace) {
  rlshard::ShardDirectory dir(4, 1000);
  EXPECT_EQ(dir.ShardOf(0), 0u);
  EXPECT_EQ(dir.ShardOf(249), 0u);
  EXPECT_EQ(dir.ShardOf(250), 1u);
  EXPECT_EQ(dir.ShardOf(999), 3u);  // remainder folds into the last shard
  EXPECT_EQ(dir.RangeEnd(3), 1000u);
  for (size_t s = 0; s < 4; ++s) {
    for (uint64_t k = dir.RangeBegin(s); k < dir.RangeEnd(s); k += 83) {
      EXPECT_EQ(dir.ShardOf(k), s);
    }
  }
}

// --- Coordinator state machine ----------------------------------------------

TEST(TwoPcTest, CrossShardCommitLandsOnBothShards) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  const uint64_t k0 = 10, k1 = (1 << 19) + 10;  // shard 0 / shard 1
  TxnOutcome outcome = TxnOutcome::kUnknown;
  bool has0 = false, has1 = false;
  sim.Spawn([](Simulator&, FleetTestbed& f, uint64_t a, uint64_t b,
               TxnOutcome& out, bool& ha, bool& hb) -> Task<void> {
    co_await f.Start();
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    out = co_await f.coordinator().Execute(1, std::move(parts));
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(5)));
    ha = co_await HasKey(f, a);
    hb = co_await HasKey(f, b);
    co_await f.Shutdown();
  }(sim, fleet, k0, k1, outcome, has0, has1));
  sim.Run();
  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(has0);
  EXPECT_TRUE(has1);
  EXPECT_EQ(fleet.coordinator().stats().cross_shard.value(), 1);
  EXPECT_EQ(fleet.coordinator().decision_log().stats().decisions_logged.value(),
            1);
}

TEST(TwoPcTest, SingleShardUsesFastPath) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  TxnOutcome outcome = TxnOutcome::kUnknown;
  bool has = false;
  sim.Spawn([](Simulator&, FleetTestbed& f, TxnOutcome& out,
               bool& h) -> Task<void> {
    co_await f.Start();
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(5)}});
    out = co_await f.coordinator().Execute(2, std::move(parts));
    h = co_await HasKey(f, 5);
    co_await f.Shutdown();
  }(sim, fleet, outcome, has));
  sim.Run();
  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  EXPECT_TRUE(has);
  EXPECT_EQ(fleet.coordinator().stats().single_shard.value(), 1);
  // The fast path must not touch the decision log.
  EXPECT_EQ(fleet.coordinator().decision_log().stats().decisions_logged.value(),
            0);
}

TEST(TwoPcTest, PartitionedParticipantAbortsAtomically) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  const uint64_t k0 = 20, k1 = (1 << 19) + 20;
  TxnOutcome outcome = TxnOutcome::kCommitted;
  bool has0 = true, has1 = true;
  sim.Spawn([](Simulator&, FleetTestbed& f, uint64_t a, uint64_t b,
               TxnOutcome& out, bool& ha, bool& hb) -> Task<void> {
    co_await f.Start();
    f.PartitionShard(1);  // shard 1 never sees the prepare
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    out = co_await f.coordinator().Execute(3, std::move(parts));
    f.HealShard(1);
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(5)));
    ha = co_await HasKey(f, a);
    hb = co_await HasKey(f, b);
    co_await f.Shutdown();
  }(sim, fleet, k0, k1, outcome, has0, has1));
  sim.Run();
  EXPECT_EQ(outcome, TxnOutcome::kAborted);
  EXPECT_FALSE(has0);  // shard 0 prepared, then resolved to abort
  EXPECT_FALSE(has1);
  EXPECT_EQ(fleet.coordinator().stats().vote_timeouts.value(), 1);
  // No decision record for a presumed abort.
  EXPECT_EQ(fleet.coordinator().decision_log().stats().decisions_logged.value(),
            0);
}

// --- Presumed-abort recovery from a dead coordinator -------------------------

TEST(TwoPcTest, CoordinatorCrashMidDecisionResolvesConsistently) {
  // Kill the coordinator at offsets sweeping the whole 2PC window — before
  // the prepares land, mid-vote, mid-decision-write (the decision record
  // buffered in the coordinator's RapiLog, the client not yet acked), with
  // the acked decision buffered but not yet drained to the SSD (~227-710 us
  // here), and after it has drained. Every offset must resolve
  // consistently; at least one must catch the protocol in flight, and at
  // least one must find a decision in the buffer for the guard to flush.
  int unknowns = 0;
  int buffered_kills = 0;
  for (const int64_t kill_us : {50, 200, 227, 300, 500, 1000, 2000, 4000,
                                8000}) {
    Simulator sim;
    FleetTestbed fleet(sim, SmallFleet(2));
    const uint64_t k0 = 30, k1 = (1 << 19) + 30;
    TxnOutcome outcome = TxnOutcome::kAborted;
    bool has0 = false, has1 = true, resolved = false;
    uint64_t buffered = 0;
    sim.Spawn([](Simulator& s, FleetTestbed& f, uint64_t a, uint64_t b,
                 int64_t at_us, TxnOutcome& out, bool& ha, bool& hb,
                 bool& res, uint64_t& buf) -> Task<void> {
      co_await f.Start();
      std::vector<ShardOps> parts;
      parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
      parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
      s.Schedule(Duration::Micros(at_us), [&f, &buf] {
        buf = f.coordinator_rapilog().buffered_bytes();
        f.KillCoordinator();
      });
      out = co_await f.coordinator().Execute(4, std::move(parts));
      co_await s.Sleep(Duration::Millis(50));
      if (!f.coordinator_alive()) {
        co_await f.RecoverCoordinator();
      }
      // The shards' in-doubt resolvers query the recovered coordinator,
      // which answers from the decision log (commit) or presumes abort.
      res = co_await f.ResolveAllInDoubt(Duration::Seconds(10));
      ha = co_await HasKey(f, a);
      hb = co_await HasKey(f, b);
      co_await f.Shutdown();
    }(sim, fleet, k0, k1, kill_us, outcome, has0, has1, resolved,
      buffered));
    sim.Run();
    if (buffered > 0) {
      ++buffered_kills;
      // The guard flushed the buffered decision: it stands.
      EXPECT_TRUE(has0) << "kill at " << kill_us << "us";
    }
    EXPECT_FALSE(fleet.coordinator_rapilog().lost_data())
        << "kill at " << kill_us << "us";
    // A coordinator crash can never manufacture an abort ack: the outcome is
    // either a durably-decided commit or unknown.
    EXPECT_NE(outcome, TxnOutcome::kAborted) << "kill at " << kill_us << "us";
    EXPECT_TRUE(resolved) << "kill at " << kill_us << "us";
    EXPECT_EQ(has0, has1) << "kill at " << kill_us << "us";  // atomic
    if (outcome == TxnOutcome::kCommitted) {
      // Acked commit must survive the crash on both shards.
      EXPECT_TRUE(has0) << "kill at " << kill_us << "us";
    } else {
      ++unknowns;
    }
  }
  // The sweep must actually have caught the protocol mid-flight.
  EXPECT_GT(unknowns, 0);
  EXPECT_GT(buffered_kills, 0);
}

// One cross-shard transaction. Once both shards have voted yes, both
// coordinator<->shard links go down: the votes are already on the wire, the
// decision push will not be. The coordinator dies as soon as the client is
// acked, while the commit decision still sits in its RapiLog buffer. After
// the rails have dropped the coordinator recovers and the links heal; the
// shards learn the outcome only from the recovered decision log.
//
// RapiLog's residency bound is 50 ms here, longer than the PSU's 32 ms
// hold-up window, and the decision is far below half the budget: left to
// itself the drain would still be lingering when the rails drop. The guard
// ends the linger at the power-fail warning and flushes.
struct BufferedDecisionKill {
  TxnOutcome outcome = TxnOutcome::kUnknown;
  uint64_t buffered_at_kill = 0;
  bool lost_data = false;
  rlfault::VerifyResult verdict;
};

BufferedDecisionKill KillWithDecisionBuffered(bool power_guard) {
  Simulator sim;
  FleetOptions opt = SmallFleet(2);
  opt.shard.rapilog.drain_linger = Duration::Millis(50);
  opt.shard.rapilog.enable_power_guard = power_guard;
  FleetTestbed fleet(sim, opt);
  rlfault::FleetChecker checker;
  BufferedDecisionKill result;
  sim.Spawn([](Simulator& s, FleetTestbed& f, rlfault::FleetChecker& ck,
               BufferedDecisionKill& res) -> Task<void> {
    co_await f.Start();
    const uint64_t gid = 9, a = 70, b = (1 << 19) + 70;
    std::vector<rlfault::TrackedWrite> writes;
    writes.push_back({.key = a, .value = Op(a).value});
    writes.push_back({.key = b, .value = Op(b).value});
    ck.OnTxnAttempt(gid, std::move(writes));
    s.Spawn([](Simulator& sm, FleetTestbed& fl) -> Task<void> {
      const rlsim::TimePoint give_up = sm.now() + Duration::Millis(10);
      while (fl.node(0).stats().votes_yes.value() +
                     fl.node(1).stats().votes_yes.value() <
                 2 &&
             sm.now() < give_up) {
        co_await sm.Sleep(Duration::Micros(1));
      }
      fl.PartitionShard(0);
      fl.PartitionShard(1);
    }(s, f));
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    res.outcome = co_await f.coordinator().Execute(gid, std::move(parts));
    if (res.outcome == TxnOutcome::kCommitted) {
      ck.OnCommitAcked(gid);
    }
    res.buffered_at_kill = f.coordinator_rapilog().buffered_bytes();
    f.KillCoordinator();
    co_await s.Sleep(Duration::Millis(100));  // the rails have dropped
    res.lost_data = f.coordinator_rapilog().lost_data();
    co_await f.RecoverCoordinator();
    f.HealShard(0);
    f.HealShard(1);
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(10)));
    const std::vector<rldb::Database*> dbs = {f.shard_db(0), f.shard_db(1)};
    res.verdict = co_await ck.VerifyAfterRecovery(f.directory(), dbs);
    co_await f.Shutdown();
  }(sim, fleet, checker, result));
  sim.Run();
  return result;
}

TEST(TwoPcTest, PowerGuardFlushesBufferedDecision) {
  const BufferedDecisionKill guarded = KillWithDecisionBuffered(true);
  EXPECT_EQ(guarded.outcome, TxnOutcome::kCommitted);
  EXPECT_GT(guarded.buffered_at_kill, 0u);
  EXPECT_FALSE(guarded.lost_data);
  EXPECT_TRUE(guarded.verdict.ok()) << guarded.verdict.Summary();
  EXPECT_EQ(guarded.verdict.keys_checked, 2u);

  // Without the guard the same acknowledged decision dies in the buffer,
  // the shards presume abort, and the oracle convicts the lost commit.
  const BufferedDecisionKill unguarded = KillWithDecisionBuffered(false);
  EXPECT_EQ(unguarded.outcome, TxnOutcome::kCommitted);
  EXPECT_GT(unguarded.buffered_at_kill, 0u);
  EXPECT_TRUE(unguarded.lost_data);
  EXPECT_EQ(unguarded.verdict.lost_writes, 2u)
      << unguarded.verdict.Summary();
}

TEST(TwoPcTest, AbsorbedCoordinatorOutageKeepsTheDecisionLog) {
  // The coordinator dies and its mains return 5 ms later, inside the 32 ms
  // hold-up window: the rails never drop, and the power-fail warning has put
  // RapiLog and the coord-log disk into emergency mode. Both must stand
  // down, or the rescan cannot read the log back and later decisions stay
  // buffered.
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  TxnOutcome first = TxnOutcome::kUnknown, second = TxnOutcome::kUnknown;
  bool first_recovered = false, second_drained = false, all_keys = false;
  sim.Spawn([](Simulator& s, FleetTestbed& f, TxnOutcome& out1,
               TxnOutcome& out2, bool& recovered, bool& drained,
               bool& keys) -> Task<void> {
    co_await f.Start();
    const uint64_t a = 80, b = (1 << 19) + 80, c = 81, d = (1 << 19) + 81;
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    out1 = co_await f.coordinator().Execute(10, std::move(parts));
    f.KillCoordinator();
    co_await s.Sleep(Duration::Millis(5));
    EXPECT_TRUE(f.coordinator_rapilog().emergency());
    co_await f.RecoverCoordinator();
    recovered = f.coordinator().decision_log().IsCommitted(10);
    EXPECT_FALSE(f.coordinator_rapilog().emergency());

    const int64_t drained_before =
        f.coordinator_rapilog().stats().drained_writes.value();
    parts.clear();
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(c)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(d)}});
    out2 = co_await f.coordinator().Execute(11, std::move(parts));
    // The drain batches below half its budget, so ask for the decision
    // explicitly; once the device has stood down it lands within one SSD
    // program.
    bool quiesced = false;
    s.Spawn([](rapilog::RapiLogDevice& rl, bool& done) -> Task<void> {
      co_await rl.Quiesce();
      done = true;
    }(f.coordinator_rapilog(), quiesced));
    co_await s.Sleep(Duration::Millis(5));
    drained = quiesced && f.coordinator_rapilog().buffered_bytes() == 0 &&
              f.coordinator_rapilog().stats().drained_writes.value() >
                  drained_before;
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(5)));
    keys = co_await HasKey(f, a) && co_await HasKey(f, b) &&
           co_await HasKey(f, c) && co_await HasKey(f, d);
    co_await f.Shutdown();
  }(sim, fleet, first, second, first_recovered, second_drained, all_keys));
  sim.Run();
  EXPECT_EQ(first, TxnOutcome::kCommitted);
  EXPECT_TRUE(first_recovered);
  EXPECT_EQ(second, TxnOutcome::kCommitted);
  EXPECT_TRUE(second_drained);
  EXPECT_TRUE(all_keys);
  EXPECT_FALSE(fleet.coordinator_rapilog().lost_data());
}

TEST(TwoPcTest, InDoubtParticipantSurvivesOwnCrashAndResolves) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  const uint64_t k0 = 40, k1 = (1 << 19) + 40;
  TxnOutcome outcome = TxnOutcome::kUnknown;
  bool has0 = false, has1 = false, resolved = false;
  sim.Spawn([](Simulator& s, FleetTestbed& f, uint64_t a, uint64_t b,
               TxnOutcome& out, bool& ha, bool& hb,
               bool& res) -> Task<void> {
    co_await f.Start();
    // Partition shard 0 from the decision push: it prepares (votes yes),
    // then loses power before any decision can reach it.
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    s.Schedule(Duration::Millis(30), [&f] { f.KillShard(0); });
    out = co_await f.coordinator().Execute(5, std::move(parts));
    co_await s.Sleep(Duration::Millis(100));
    co_await f.RecoverShard(0);
    res = co_await f.ResolveAllInDoubt(Duration::Seconds(10));
    ha = co_await HasKey(f, a);
    hb = co_await HasKey(f, b);
    co_await f.Shutdown();
  }(sim, fleet, k0, k1, outcome, has0, has1, resolved));
  sim.Run();
  EXPECT_TRUE(resolved);
  EXPECT_EQ(has0, has1);  // atomic either way
  if (outcome == TxnOutcome::kCommitted) {
    // If the client was acked, the crashed shard must have re-learned the
    // commit from its prepare record plus the coordinator's decision log.
    EXPECT_TRUE(has0);
  }
}

// --- Explicit dispatch (regression for rapicheck RC202/RC102) -----------------
// The endpoint switches enumerate every MsgType explicitly: kinds addressed
// to the other role land in an unexpected_msgs counter instead of a silent
// `default:`, and QueryAnswer::kAbort is consumed by name in the shard's
// resolution path rather than falling out of an if-chain.

TEST(DispatchTest, CleanRunRoutesEveryMessageExplicitly) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  const uint64_t k0 = 60, k1 = (1 << 19) + 60;
  TxnOutcome outcome = TxnOutcome::kUnknown;
  sim.Spawn([](Simulator&, FleetTestbed& f, uint64_t a, uint64_t b,
               TxnOutcome& out) -> Task<void> {
    co_await f.Start();
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    out = co_await f.coordinator().Execute(7, std::move(parts));
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(5)));
    co_await f.Shutdown();
  }(sim, fleet, k0, k1, outcome));
  sim.Run();
  EXPECT_EQ(outcome, TxnOutcome::kCommitted);
  EXPECT_EQ(fleet.coordinator().stats().unexpected_msgs.value(), 0);
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    EXPECT_EQ(fleet.node(i).stats().unexpected_msgs.value(), 0);
  }
}

TEST(DispatchTest, PresumedAbortAnswerResolvesPreparedShard) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  const uint64_t k0 = 61, k1 = (1 << 19) + 61;
  TxnOutcome outcome = TxnOutcome::kAborted;
  bool has0 = true, resolved = false;
  sim.Spawn([](Simulator& s, FleetTestbed& f, uint64_t a, uint64_t b,
               TxnOutcome& out, bool& ha, bool& res) -> Task<void> {
    co_await f.Start();
    // Shard 1 never sees its prepare, and the coordinator dies well before
    // the 400ms vote timeout — after shard 0 has prepared, before any
    // decision exists or can be pushed. The recovered coordinator has no
    // pending state and nothing in the decision log, so shard 0 must learn
    // the outcome through a query answered QueryAnswer::kAbort.
    f.PartitionShard(1);
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    s.Schedule(Duration::Millis(30), [&f] { f.KillCoordinator(); });
    out = co_await f.coordinator().Execute(8, std::move(parts));
    co_await s.Sleep(Duration::Millis(50));
    co_await f.RecoverCoordinator();
    f.HealShard(1);
    res = co_await f.ResolveAllInDoubt(Duration::Seconds(10));
    ha = co_await HasKey(f, a);
    co_await f.Shutdown();
  }(sim, fleet, k0, k1, outcome, has0, resolved));
  sim.Run();
  EXPECT_EQ(outcome, TxnOutcome::kUnknown);
  EXPECT_TRUE(resolved);
  EXPECT_FALSE(has0);
  EXPECT_GE(fleet.node(0).stats().resolved_by_query.value(), 1);
  EXPECT_EQ(fleet.node(0).stats().unexpected_msgs.value(), 0);
}

// --- Stats registry: many testbeds, one process -------------------------------

TEST(FleetStatsTest, TwoReplicatedTestbedsShareOneRegistry) {
  Simulator sim;
  TestbedOptions base;
  base.mode = DeploymentMode::kRapiLog;
  base.disks = DiskSetup::kSharedHdd;
  base.db.profile = rldb::PostgresLikeProfile();
  base.replication.enabled = true;
  TestbedOptions a = base;
  a.instance = "alpha.";
  TestbedOptions b = base;
  b.instance = "beta.";
  Testbed bed_a(sim, a);
  Testbed bed_b(sim, b);
  rlsim::StatsRegistry registry;
  bed_a.RegisterReplicationStats(registry);
  // Before instance prefixes this second registration aborted on duplicate
  // "net." / "ship." / "replica-N." names.
  bed_b.RegisterReplicationStats(registry);
  const std::string text = registry.Format();
  EXPECT_NE(text.find("alpha.net."), std::string::npos);
  EXPECT_NE(text.find("beta.net."), std::string::npos);
  EXPECT_NE(text.find("alpha.replica-0."), std::string::npos);
  EXPECT_NE(text.find("beta.replica-0."), std::string::npos);
}

TEST(FleetStatsTest, FleetRegistersEveryShardDistinctly) {
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(3));
  rlsim::StatsRegistry registry;
  fleet.RegisterStats(registry);
  const std::string text = registry.Format();
  EXPECT_NE(text.find("coord.committed"), std::string::npos);
  EXPECT_NE(text.find("shard-0.2pc."), std::string::npos);
  EXPECT_NE(text.find("shard-2.2pc."), std::string::npos);
  EXPECT_NE(text.find("fleet.net."), std::string::npos);
}

// --- 200-seed crash-point sweep ----------------------------------------------

// Everything a crash episode must reproduce regardless of how the shards
// replay their logs: the oracle verdict, the in-doubt transactions each
// shard reinstates from its prepare records (captured before the resolver
// drains them), and the full committed contents per shard.
struct FleetCrashOutcome {
  rlfault::VerifyResult verdict;
  std::vector<std::vector<uint64_t>> in_doubt;  // per shard, pre-resolution
  std::vector<uint64_t> shard_hashes;
};

// One episode: a 2-shard fleet under cross-shard load; at a seeded instant a
// seeded fault (coordinator kill / shard kill / partition) fires — the
// instant sweeps across all 2PC message boundaries as seeds vary. After
// wind-down and full recovery, the fleet atomicity oracle must hold.
// `partitions` sets the shards' redo stream count on every recovery
// (mid-episode and final alike); it must never change anything this returns.
FleetCrashOutcome RunCrashEpisode(uint64_t seed, uint32_t partitions = 1) {
  Simulator sim;
  FleetOptions opt = SmallFleet(2);
  opt.shard.db.recovery.partitions = partitions;
  FleetTestbed fleet(sim, opt);
  rlwork::FleetConfig wcfg;
  wcfg.cross_shard_probability = 0.6;
  wcfg.ops_per_txn = 3;
  rlwork::FleetWorkload work(sim, wcfg);
  rlfault::FleetChecker checker;
  FleetCrashOutcome result;
  bool stop = false;

  sim.Spawn([](Simulator& s, FleetTestbed& f, rlwork::FleetWorkload& w,
               rlfault::FleetChecker& ck, FleetCrashOutcome& res,
               bool& stop_flag, uint64_t sd) -> Task<void> {
    co_await f.Start();
    for (int c = 0; c < 4; ++c) {
      s.Spawn(w.RunClient(f.coordinator(), f.directory(), c, &stop_flag,
                          &ck));
    }
    rlsim::Rng rng(sd * 0x9e3779b97f4a7c15ull + 1);
    // Fault instant: anywhere in the first 400ms of load — prepares, votes,
    // decision writes and decision pushes are all in flight in this window.
    const Duration at = Duration::Micros(1000 + rng.NextBelow(400'000));
    const uint64_t kind = rng.NextBelow(3);
    const size_t victim = rng.NextBelow(2);
    co_await s.Sleep(at);
    switch (kind) {
      case 0:
        f.KillCoordinator();
        break;
      case 1:
        f.KillShard(victim);
        break;
      default:
        f.PartitionShard(victim);
        break;
    }
    co_await s.Sleep(Duration::Millis(150));
    // Wind-down: stop load, heal everything, recover everyone, drain doubt.
    stop_flag = true;
    co_await s.Sleep(Duration::Millis(50));
    for (size_t i = 0; i < f.shard_count(); ++i) {
      f.HealShard(i);
    }
    co_await f.RecoverCoordinator();
    for (size_t i = 0; i < f.shard_count(); ++i) {
      co_await f.RecoverShard(i);
    }
    // The in-doubt sets the shards rebuilt from their prepare records —
    // snapshotted before the resolver drains them, because reinstatement is
    // part of recovery and must not depend on the redo stream count.
    for (size_t i = 0; i < f.shard_count(); ++i) {
      res.in_doubt.push_back(f.shard_db(i)->InDoubtGlobalIds());
    }
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(20)))
        << "seed " << sd << ": in-doubt transactions never drained";
    std::vector<rldb::Database*> dbs;
    for (size_t i = 0; i < f.shard_count(); ++i) {
      dbs.push_back(f.shard_db(i));
    }
    res.verdict = co_await ck.VerifyAfterRecovery(f.directory(), dbs);
    for (size_t i = 0; i < f.shard_count(); ++i) {
      res.shard_hashes.push_back(co_await f.shard_db(i)->ContentHash());
    }
    co_await f.Shutdown();
  }(sim, fleet, work, checker, result, stop, seed));
  sim.Run();
  return result;
}

TEST(TwoPcCrashSweepTest, AtomicityHoldsAcross200Seeds) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    const rlfault::VerifyResult r = RunCrashEpisode(seed).verdict;
    EXPECT_EQ(r.atomicity_violations, 0u) << "seed " << seed;
    EXPECT_EQ(r.lost_writes, 0u) << "seed " << seed << ": " << r.Summary();
  }
}

TEST(TwoPcCrashSweepTest, RedoStreamCountNeverChangesTheOutcome) {
  // Same seeds, one redo stream and eight: the fault fires at the same
  // virtual instant on the same fleet, so the crash images are bit-identical
  // and the diff isolates the recovery path. Verdict, reinstated in-doubt
  // sets, and per-shard contents must all match — a stream split that
  // dropped or reordered a prepare record would show up here first.
  uint64_t episodes_with_doubt = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const FleetCrashOutcome k1 = RunCrashEpisode(seed, 1);
    const FleetCrashOutcome k8 = RunCrashEpisode(seed, 8);
    EXPECT_EQ(k1.verdict.atomicity_violations, 0u) << "seed " << seed;
    EXPECT_EQ(k8.verdict.atomicity_violations, 0u) << "seed " << seed;
    EXPECT_EQ(k1.verdict.lost_writes, k8.verdict.lost_writes)
        << "seed " << seed;
    EXPECT_EQ(k1.verdict.keys_checked, k8.verdict.keys_checked)
        << "seed " << seed;
    ASSERT_EQ(k1.in_doubt, k8.in_doubt)
        << "seed " << seed << ": in-doubt reinstatement diverged";
    ASSERT_EQ(k1.shard_hashes, k8.shard_hashes)
        << "seed " << seed << ": recovered contents diverged";
    for (const auto& shard : k1.in_doubt) {
      if (!shard.empty()) {
        ++episodes_with_doubt;
        break;
      }
    }
  }
  // The sweep must actually catch prepared transactions in flight.
  EXPECT_GT(episodes_with_doubt, 5u);
}

}  // namespace
}  // namespace rlharness
