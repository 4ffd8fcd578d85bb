// Two-phase commit over the fleet topology: wire protocol, coordinator
// state machine (commit / abort / fast-path), presumed-abort recovery from
// a torn coordinator log, and a 200-seed crash-point sweep that kills
// coordinators and shards across 2PC message boundaries and checks the
// fleet atomicity oracle after every schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/faults/fleet_checker.h"
#include "src/harness/fleet_testbed.h"
#include "src/shard/decision_log.h"
#include "src/shard/shard_directory.h"
#include "src/shard/wire.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"
#include "src/storage/partition.h"
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
using rlshard::WireFrame;
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

// The ops of a decoded frame, copied out of it.
std::vector<WireOp> CopyOps(const rlshard::WireFrame& frame) {
  std::vector<WireOp> ops;
  for (const rlshard::WireOpView op : frame.ops) {
    ops.push_back(WireOp{.is_delete = op.is_delete,
                         .key = op.key,
                         .value = {op.value.begin(), op.value.end()}});
  }
  return ops;
}

TEST(WireTest, RoundTripsAllFields) {
  WireMessage msg = WireMessage::Make(MsgType::kPrepareReq, 0x1234'5678'9abcull,
                                      1);
  msg.ops.push_back(Op(7));
  msg.ops.push_back(WireOp{.is_delete = true, .key = 99, .value = {}});

  const std::vector<uint8_t> bytes = EncodeMessage(msg);
  WireFrame back;
  ASSERT_TRUE(DecodeMessage(bytes, &back));
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.global_id, msg.global_id);
  EXPECT_EQ(back.flag, msg.flag);
  ASSERT_EQ(back.ops.size(), 2u);
  const std::vector<WireOp> ops = CopyOps(back);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].key, 7u);
  EXPECT_FALSE(ops[0].is_delete);
  EXPECT_EQ(ops[0].value, msg.ops[0].value);
  // The decoded value is a view into the frame, not a copy.
  EXPECT_EQ((*back.ops.begin()).value.data(), bytes.data() + 14 + 11);
  EXPECT_TRUE(ops[1].is_delete);
  EXPECT_EQ(ops[1].key, 99u);
}

TEST(WireTest, RejectsGarbage) {
  WireFrame out;
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

TEST(WireTest, EncodesIntoTheGivenBuffer) {
  std::vector<uint8_t> buf;
  buf.reserve(256);
  buf.assign(7, 0xEE);  // stale bytes from the buffer's last frame
  const uint8_t* storage = buf.data();
  WireMessage msg = WireMessage::Make(MsgType::kExecuteReq, 5);
  msg.ops.push_back(Op(3));
  const std::vector<uint8_t> bytes = EncodeMessage(msg, std::move(buf));
  EXPECT_EQ(bytes.data(), storage);
  EXPECT_EQ(bytes, EncodeMessage(msg));
}

// A value too long for the u16 length field, or an op count too large for
// the u32, must fail loudly: a truncated field yields a frame the strict
// decoder drops, and the transaction would silently wait out its vote
// timeout.
TEST(WireTest, OversizedValueIsANamedCheckFailure) {
  WireMessage msg = WireMessage::Make(MsgType::kPrepareReq, 8);
  msg.ops.push_back(WireOp{.key = 1, .value = std::vector<uint8_t>(65535)});
  const std::vector<uint8_t> fits = EncodeMessage(msg);
  WireFrame back;
  ASSERT_TRUE(DecodeMessage(fits, &back));
  EXPECT_EQ((*back.ops.begin()).value.size(), 65535u);

  msg.ops.push_back(WireOp{.key = 2, .value = std::vector<uint8_t>(65536)});
  try {
    EncodeMessage(msg);
    FAIL() << "a 64 KiB value encoded";
  } catch (const rlsim::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("u16 length field"),
              std::string::npos)
        << e.what();
  }
}

// Strictness over a 3-op prepare frame. Every proper prefix is torn and
// must decode to false. A single-byte change to the type, the op count or
// a value length must decode to false or to exactly what the new bytes
// encode: re-encoding the decoded frame reproduces them byte for byte.
// Each candidate is decoded from a buffer of exactly its size, so under
// AddressSanitizer a read past the frame faults.
TEST(WireTest, DecoderIsStrictOverEveryPrefixAndFieldByte) {
  WireMessage msg = WireMessage::Make(MsgType::kPrepareReq, 0xABCDEF, 0);
  msg.ops.push_back(Op(11));
  msg.ops.push_back(WireOp{.is_delete = true, .key = 12, .value = {}});
  msg.ops.push_back(WireOp{.key = 13, .value = {1, 2, 3, 4, 5}});
  const std::vector<uint8_t> frame = EncodeMessage(msg);

  WireFrame out;
  for (size_t len = 0; len < frame.size(); ++len) {
    const std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    EXPECT_FALSE(DecodeMessage(prefix, &out)) << "prefix of " << len;
  }

  // Field bytes: the type (0), the op count (10..13), and each op's u16
  // value length (op header offset + 9 and + 10).
  std::vector<size_t> positions = {0, 10, 11, 12, 13};
  size_t op_at = 14;
  for (const WireOp& op : msg.ops) {
    positions.push_back(op_at + 9);
    positions.push_back(op_at + 10);
    op_at += 11 + op.value.size();
  }
  ASSERT_EQ(op_at, frame.size());

  int decoded = 0;
  for (const size_t pos : positions) {
    for (int v = 0; v < 256; ++v) {
      if (v == frame[pos]) {
        continue;
      }
      std::vector<uint8_t> mutated = frame;
      mutated[pos] = static_cast<uint8_t>(v);
      const std::vector<uint8_t> exact(mutated.begin(), mutated.end());
      if (!DecodeMessage(exact, &out)) {
        continue;
      }
      ++decoded;
      WireMessage again = WireMessage::Make(out.type, out.global_id, out.flag);
      again.ops = CopyOps(out);
      EXPECT_EQ(EncodeMessage(again), exact)
          << "byte " << pos << " set to " << v;
    }
  }
  // Only the other seven message types survive a one-byte change.
  EXPECT_EQ(decoded, 7);
}

// --- Decision log ------------------------------------------------------------

// The decision log keeps every commit decision, so its ring's reuse floor
// never moves and the ring is its whole device: at the device's end it
// fails the writer's named check instead of overwriting decisions, and does
// not halt as if the power had gone.
TEST(DecisionLogTest, FullRingIsANamedCheckFailure) {
  Simulator sim;
  const rldb::EngineProfile profile = rldb::PostgresLikeProfile();
  rlstor::SimBlockDevice disk(
      sim,
      rlstor::SimBlockDevice::Options{.geometry = {.sector_count = 1 << 16},
                                      .name = "coord-disk"},
      rlstor::MakeDefaultSsd());
  rlstor::PartitionDevice area(
      disk, /*first_lba=*/1024,
      /*sector_count=*/4 * profile.log_block_bytes / rlstor::kSectorSize);
  rlshard::DecisionLog log(sim, area, profile);
  sim.Spawn([](rlshard::DecisionLog& l) -> Task<void> {
    co_await l.Recover();
    for (uint64_t global_id = 1;; ++global_id) {
      co_await l.LogCommit(global_id);
    }
  }(log));
  std::string failure;
  try {
    sim.Run();
  } catch (const rlsim::CheckFailure& e) {
    failure = e.what();
  }
  EXPECT_NE(failure.find("log area full"), std::string::npos) << failure;
  EXPECT_FALSE(log.halted());
  // Four blocks of 35-byte commit records were logged before the end.
  EXPECT_GT(log.stats().decisions_logged.value(), 3 * 8160 / 35);
  EXPECT_TRUE(log.IsCommitted(1));
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

TEST(TwoPcTest, CoordinatorForgetsFullyAckedCommits) {
  // Four clients run 100 cross-shard commits each. Every commit is acked by
  // both shards shortly after its decision, so the coordinator's set of
  // remembered commits stays as small as the commits in flight, not as
  // large as the run; a kill and recovery rebuilds it from the whole log.
  constexpr int kClients = 4;
  constexpr int kTxnsPerClient = 100;
  Simulator sim;
  FleetTestbed fleet(sim, SmallFleet(2));
  struct Run {
    int committed = 0;
    size_t most_remembered = 0;
    size_t remembered_after_drain = 0;
    size_t remembered_after_recovery = 0;
  } run;
  sim.Spawn([](Simulator& s, FleetTestbed& f, Run& out) -> Task<void> {
    co_await f.Start();
    rlsim::TaskGroup clients(s);
    for (int c = 0; c < kClients; ++c) {
      clients.Spawn([](FleetTestbed& f2, Run& o, int client) -> Task<void> {
        for (int i = 0; i < kTxnsPerClient; ++i) {
          const uint64_t key = 1000 + client * kTxnsPerClient + i;
          std::vector<ShardOps> parts;
          parts.push_back(ShardOps{.shard = 0, .ops = {Op(key)}});
          parts.push_back(ShardOps{.shard = 1, .ops = {Op((1 << 19) + key)}});
          const uint64_t global_id = 1 + client * kTxnsPerClient + i;
          if (co_await f2.coordinator().Execute(global_id, std::move(parts)) ==
              TxnOutcome::kCommitted) {
            ++o.committed;
          }
          o.most_remembered = std::max(
              o.most_remembered,
              f2.coordinator().decision_log().committed_count());
        }
      }(f, out, c));
    }
    co_await clients.Join();
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(5)));
    co_await s.Sleep(Duration::Seconds(1));
    out.remembered_after_drain =
        f.coordinator().decision_log().committed_count();
    f.KillCoordinator();
    co_await f.RecoverCoordinator();
    out.remembered_after_recovery =
        f.coordinator().decision_log().committed_count();
    co_await f.Shutdown();
  }(sim, fleet, run));
  sim.Run();
  EXPECT_EQ(run.committed, kClients * kTxnsPerClient);
  EXPECT_EQ(fleet.coordinator().decision_log().stats().decisions_logged.value(),
            kClients * kTxnsPerClient);
  EXPECT_LE(run.most_remembered, 2u * kClients);
  EXPECT_EQ(run.remembered_after_drain, 0u);
  EXPECT_EQ(run.remembered_after_recovery,
            static_cast<size_t>(kClients * kTxnsPerClient));
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
  Duration took;
  sim.Spawn([](Simulator& s, FleetTestbed& f, uint64_t a, uint64_t b,
               TxnOutcome& out, bool& ha, bool& hb,
               Duration& elapsed) -> Task<void> {
    co_await f.Start();
    f.PartitionShard(1);  // shard 1 never sees the prepare
    std::vector<ShardOps> parts;
    parts.push_back(ShardOps{.shard = 0, .ops = {Op(a)}});
    parts.push_back(ShardOps{.shard = 1, .ops = {Op(b)}});
    const rlsim::TimePoint start = s.now();
    out = co_await f.coordinator().Execute(3, std::move(parts));
    elapsed = s.now() - start;
    f.HealShard(1);
    EXPECT_TRUE(co_await f.ResolveAllInDoubt(Duration::Seconds(5)));
    ha = co_await HasKey(f, a);
    hb = co_await HasKey(f, b);
    co_await f.Shutdown();
  }(sim, fleet, k0, k1, outcome, has0, has1, took));
  sim.Run();
  EXPECT_EQ(outcome, TxnOutcome::kAborted);
  // The abort comes from the vote timeout, at exactly its deadline.
  EXPECT_EQ(took, rlshard::CoordinatorOptions{}.vote_timeout);
  EXPECT_FALSE(has0);  // shard 0 prepared, then resolved to abort
  EXPECT_FALSE(has1);
  EXPECT_EQ(fleet.coordinator().stats().vote_timeouts.value(), 1);
  // No decision record for a presumed abort.
  EXPECT_EQ(fleet.coordinator().decision_log().stats().decisions_logged.value(),
            0);
}

// The vote timeout is a queued event, not a parked task: with a 10 s
// timeout, 1 000 finished transactions leave no root task behind, so the
// live tasks are the resident loops the fleet started with.
TEST(TwoPcTest, VoteTimeoutsParkNoTaskPerTransaction) {
  Simulator sim;
  FleetOptions opt = SmallFleet(2);
  opt.coordinator.vote_timeout = Duration::Seconds(10);
  FleetTestbed fleet(sim, opt);
  size_t resident = 0;
  size_t after = 0;
  int committed = 0;
  sim.Spawn([](Simulator& s, FleetTestbed& f, size_t& before, size_t& end,
               int& ok) -> Task<void> {
    co_await f.Start();
    before = s.pending_tasks();
    for (uint64_t gid = 1; gid <= 1000; ++gid) {
      std::vector<ShardOps> parts;
      parts.push_back(ShardOps{.shard = gid % 2, .ops = {}});
      parts[0].ops.push_back(Op(gid % 2 == 0 ? gid : (1 << 19) + gid));
      if (co_await f.coordinator().Execute(gid, std::move(parts)) ==
          TxnOutcome::kCommitted) {
        ++ok;
      }
    }
    // Well inside the first transaction's timeout.
    EXPECT_LT(s.now(), rlsim::TimePoint::Origin() + Duration::Seconds(10));
    end = s.pending_tasks();
    co_await f.Shutdown();
  }(sim, fleet, resident, after, committed));
  sim.Run();
  EXPECT_EQ(committed, 1000);
  EXPECT_EQ(fleet.coordinator().stats().vote_timeouts.value(), 0);
  EXPECT_GT(resident, 0u);
  EXPECT_LE(after, resident);
}

TEST(TwoPcTest, MoreShardsThanTheVoteBitmaskIsANamedCheckFailure) {
  Simulator sim;
  rlnet::NetworkFabric fabric(sim);
  rlstor::SimBlockDevice dev(
      sim,
      rlstor::SimBlockDevice::Options{.geometry = {.sector_count = 1 << 16}},
      rlstor::MakeDefaultSsd());
  std::vector<std::string> shards;
  for (size_t i = 0; i <= rlshard::TxnCoordinator::kMaxShards; ++i) {
    shards.push_back(rlshard::ShardDirectory::EndpointName(i));
  }
  try {
    rlshard::TxnCoordinator coord(sim, fabric, "coord", shards, dev,
                                  rldb::PostgresLikeProfile());
    FAIL() << "a 65-shard coordinator was built";
  } catch (const rlsim::CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("vote bitmask"), std::string::npos)
        << e.what();
  }
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
// RapiLog's residency bound (1 s) is longer than the PSU's 32 ms hold-up
// window, and the decision is far below half the budget: left to itself the
// drain would still be lingering when the rails drop. The guard ends the
// linger at the power-fail warning and flushes.
struct BufferedDecisionKill {
  TxnOutcome outcome = TxnOutcome::kUnknown;
  uint64_t buffered_at_kill = 0;
  bool lost_data = false;
  rlfault::VerifyResult verdict;
};

BufferedDecisionKill KillWithDecisionBuffered(bool power_guard) {
  Simulator sim;
  FleetOptions opt = SmallFleet(2);
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
  rlwork::ClientDriver clients(sim, &checker);

  sim.Spawn([](Simulator& s, FleetTestbed& f, rlwork::FleetWorkload& w,
               rlfault::FleetChecker& ck, FleetCrashOutcome& res,
               rlwork::ClientDriver& d, uint64_t sd) -> Task<void> {
    co_await f.Start();
    d.Spawn(4, w.Clients(f.coordinator(), f.directory()));
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
    d.Stop();
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
  }(sim, fleet, work, checker, result, clients, seed));
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
