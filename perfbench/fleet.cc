// fleet-2pc: two shard testbeds behind the 2PC coordinator, 16 clients,
// cross-shard probability 0.6, with E13's shard sizing. The driver builds
// every transaction from the seed and runs it through
// rlshard::TxnCoordinator::Execute under its own bench-txn root span.
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/faults/fleet_checker.h"
#include "src/harness/fleet_testbed.h"
#include "src/obs/span_tracer.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/workload/tpcc_lite.h"

namespace perfbench {

using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

constexpr int kFleetClients = 16;
constexpr double kCrossShard = 0.6;
constexpr uint32_t kOpsPerTxn = 4;
constexpr uint32_t kValueBytes = 96;
const Duration kVoteTimeout = Duration::Seconds(10);

struct FleetShared {
  Simulator& sim;
  rlharness::FleetTestbed& fleet;
  PassResult& out;
  rlfault::FleetChecker checker;
  bool measuring = false;
  bool finished = false;  // FleetMain ran to its end
};

// One closed-loop client homed on shard (client mod shards): blind 4-key
// write transactions, one key on another shard with probability 0.6.
Task<void> FleetClient(FleetShared& sh, int client, uint64_t seed,
                       const bool* stop) {
  rlsim::Rng rng(DeriveSeed(seed, static_cast<uint64_t>(client)));
  const rlshard::ShardDirectory& dir = sh.fleet.directory();
  const size_t shards = dir.shards();
  const size_t home = static_cast<size_t>(client) % shards;
  const std::string name = "client-" + std::to_string(client);
  const auto range_key = [&](size_t shard) {
    const uint64_t lo = dir.RangeBegin(shard);
    return lo + rng.NextBelow(dir.RangeEnd(shard) - lo);
  };
  uint64_t seq = 0;
  while (!*stop) {
    const uint64_t global_id = (static_cast<uint64_t>(client) + 1) << 40 | ++seq;
    const bool cross = rng.NextDouble() < kCrossShard;
    const size_t remote = (home + 1 + rng.NextBelow(shards - 1)) % shards;
    std::set<uint64_t> used;
    std::map<size_t, std::vector<rlshard::WireOp>> by_shard;
    std::vector<rlfault::TrackedWrite> tracked;
    for (uint32_t i = 0; i < kOpsPerTxn; ++i) {
      const size_t shard = cross && i == 0 ? remote : home;
      uint64_t key = range_key(shard);
      while (!used.insert(key).second) {
        key = range_key(shard);
      }
      rlshard::WireOp op;
      op.key = key;
      op.value = rlwork::RowValue(kValueBytes, key, rng.Next());
      tracked.push_back(rlfault::TrackedWrite{.key = key, .value = op.value});
      by_shard[shard].push_back(std::move(op));
    }
    std::vector<rlshard::ShardOps> parts;
    for (auto& [shard, ops] : by_shard) {
      parts.push_back(rlshard::ShardOps{.shard = shard, .ops = std::move(ops)});
    }
    sh.checker.OnTxnAttempt(global_id, std::move(tracked));
    const TimePoint start = sh.sim.now();
    rlshard::TxnOutcome outcome;
    {
      rlsim::SpanScope span(sh.sim, name, "bench-txn",
                            static_cast<int64_t>(global_id));
      outcome = co_await sh.fleet.coordinator().Execute(
          global_id, std::move(parts), span.id());
    }
    const int64_t ns = (sh.sim.now() - start).nanos();
    switch (outcome) {
      case rlshard::TxnOutcome::kCommitted:
        sh.checker.OnCommitAcked(global_id);
        break;
      case rlshard::TxnOutcome::kAborted:
        sh.checker.OnAborted(global_id);
        break;
      case rlshard::TxnOutcome::kUnknown:
        break;  // stays pending; the post-run verify resolves it
    }
    if (sh.measuring) {
      PassResult& out = sh.out;
      ++out.attempted;
      if (outcome == rlshard::TxnOutcome::kCommitted) {
        ++out.committed;
        out.latency_ns.push_back(ns);
      } else if (outcome == rlshard::TxnOutcome::kAborted) {
        ++out.tpc_aborts;
      } else {
        ++out.unknown;
      }
      Mix(out.digest, global_id);
      Mix(out.digest, static_cast<uint64_t>(ns));
      Mix(out.digest, static_cast<uint64_t>(outcome));
    }
    co_await sh.sim.Sleep(Duration::Micros(200));  // think time
  }
}

Task<void> FleetMain(FleetShared& sh, const PassOptions& options) {
  Simulator& s = sh.sim;
  rlharness::FleetTestbed& fleet = sh.fleet;
  PassResult& out = sh.out;
  bool stop = false;
  co_await fleet.Start();
  out.clients = kFleetClients;
  for (int c = 0; c < kFleetClients; ++c) {
    s.Spawn(FleetClient(sh, c, options.seed, &stop));
  }
  co_await s.Sleep(Duration::Millis(400));  // warm up
  s.Stop();
  const LayerCounters c0 = ReadFleet(fleet);
  sh.measuring = true;
  const Duration window =
      Duration::Nanos(static_cast<int64_t>(options.window * 1e9));
  const double load_start = HostSeconds();
  co_await s.Sleep(window);
  out.load_host_s = HostSeconds() - load_start;
  sh.measuring = false;
  out.window_s = window.ToSecondsF();
  out.layers = ReadFleet(fleet) - c0;
  ReadGauges({&fleet.shard(0), &fleet.shard(1)}, &fleet.fabric(), out.gauges);
  s.Stop();
  stop = true;
  // Every client finishes its transaction within the vote timeout.
  co_await s.Sleep(kVoteTimeout + Duration::Seconds(1));
  if (!co_await fleet.ResolveAllInDoubt(Duration::Seconds(30))) {
    Fail(out, "in-doubt transactions left after 30 s");
  }
  std::vector<rldb::Database*> dbs;
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    dbs.push_back(fleet.shard_db(i));
  }
  const rlfault::VerifyResult verdict =
      co_await sh.checker.VerifyAfterRecovery(fleet.directory(), dbs);
  out.lost_acked += static_cast<int64_t>(verdict.lost_writes);
  if (!verdict.ok()) {
    Fail(out, "fleet check: " + verdict.Summary());
  }
  for (rldb::Database* db : dbs) {
    co_await db->CheckTreeStructure();
  }
  co_await fleet.Shutdown();
  sh.finished = true;
}

}  // namespace

PassResult RunFleet(const PassOptions& options) {
  PassResult out;
  const double h0 = HostSeconds();
  Simulator sim(options.seed);
  rlobs::SpanTracer tracer;
  if (options.trace) {
    sim.set_tracer(&tracer);
  }
  rlharness::FleetOptions fopt;
  fopt.shards = 2;
  fopt.shard.db.profile = rldb::PostgresLikeProfile();
  fopt.shard.db.pool_pages = 512;
  fopt.shard.db.journal_pages = 300;
  fopt.shard.db.profile.checkpoint_dirty_pages = 128;
  // Executes and prepares behind a shard's checkpoint stall can outlast the
  // default 400 ms vote and 500 ms lock timeouts (rarely even 2 s) and come
  // back unknown or aborted; long waits report the stall as latency, as on
  // the single-node workloads.
  fopt.shard.db.profile.lock_timeout = Duration::Seconds(5);
  fopt.coordinator.vote_timeout = kVoteTimeout;
  rlharness::FleetTestbed fleet(sim, fopt);
  FleetShared sh{sim, fleet, out, {}};
  sim.Spawn(FleetMain(sh, options), "perfbench-main");
  RunSegment(sim, out);
  out.setup_s = HostSeconds() - h0;
  const int64_t window_begin = sim.now().nanos();
  const double h1 = HostSeconds();
  out.window_events = static_cast<int64_t>(RunSegment(sim, out));
  out.window_host_s = HostSeconds() - h1;
  const int64_t window_end = sim.now().nanos();
  // A bounded deadline turns a simulation that never drains into a failed
  // check rather than a hung run.
  RunSegment(sim, out, sim.now() + Duration::Seconds(3600));
  if (!sh.finished) {
    Fail(out, "checks did not finish within an hour of virtual time");
  }
  if (options.trace) {
    sim.set_tracer(nullptr);
    out.spans = SummarizeSpans(tracer, window_begin, window_end,
                               fleet.shard(0).log_disk_physical().options().name);
  }
  return out;
}

}  // namespace perfbench
