// Single-node workloads: the TPC-C-lite OLTP mix on a shared HDD or an SSD
// log (oltp-hdd, oltp-ssdlog), and the zipfian KV mix under repeated power
// cuts (powercut-recover). The driver generates every transaction from the
// seed and issues it itself through rldb::Database, timing each one.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/db/errors.h"
#include "src/faults/durability_checker.h"
#include "src/harness/testbed.h"
#include "src/obs/span_tracer.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/vmm/vm.h"
#include "src/workload/kv_workload.h"
#include "src/workload/tpcc_lite.h"

namespace perfbench {

using rldb::Database;
using rldb::DbStatus;
using rlfault::TrackedWrite;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

constexpr int kOltpClients = 16;
constexpr int kPowercutClients = 8;
constexpr uint64_t kPowercutKeys = 200'000;
constexpr uint64_t kPowercutPreload = 50'000;
const Duration kLoadPerCut = Duration::Millis(500);

// The pg-like profile (every commit forces the log) on a 16 MiB buffer pool,
// RapiLog with its default drain, at OLTP-typical PSU load.
rlharness::TestbedOptions SingleNodeTestbed(rlharness::DiskSetup disks) {
  rlharness::TestbedOptions opt;
  opt.mode = rlharness::DeploymentMode::kRapiLog;
  opt.disks = disks;
  opt.db.profile = rldb::PostgresLikeProfile();
  opt.db.pool_pages = 2048;
  opt.db.journal_pages = 1200;
  opt.db.profile.checkpoint_dirty_pages = 512;
  // The generated transactions lock in ascending key order, so they cannot
  // deadlock; a long lock timeout (PostgreSQL waits indefinitely) keeps a
  // checkpoint stall from turning into aborts.
  opt.db.profile.lock_timeout = Duration::Seconds(5);
  opt.psu.system_load_watts = 120;
  return opt;
}

// The DefaultTpcc() sizing of the experiment benches.
rlwork::TpccConfig OltpSizing() {
  rlwork::TpccConfig cfg;
  cfg.warehouses = 2;
  cfg.districts_per_warehouse = 8;
  cfg.customers_per_district = 50;
  cfg.items = 1000;
  cfg.think_time = Duration::Micros(300);
  return cfg;
}

// State the client coroutines share with the pass.
struct Shared {
  Simulator& sim;
  rlharness::Testbed& bed;
  PassResult& out;
  rlfault::DurabilityChecker checker;
  bool measuring = false;
  bool finished = false;  // the pass's main task ran to its end
  uint64_t next_token = 1;

  // Records one transaction outcome if it lands inside the measured window.
  void Record(int client, TimePoint start, bool committed) {
    if (!measuring) {
      return;
    }
    ++out.attempted;
    const int64_t ns = (sim.now() - start).nanos();
    if (committed) {
      ++out.committed;
      out.latency_ns.push_back(ns);
    } else {
      ++out.lock_aborts;
    }
    Mix(out.digest, static_cast<uint64_t>(client));
    Mix(out.digest, static_cast<uint64_t>(ns));
    Mix(out.digest, committed ? 1 : 0);
  }
};

// Commits `txn`, reporting its writes to the durability checker. Returns
// false if the engine refused the commit.
Task<bool> CommitTracked(Shared& sh, Database& db, uint64_t txn,
                         std::vector<TrackedWrite> writes) {
  const uint64_t token = sh.next_token++;
  const bool tracked = !writes.empty();
  if (tracked) {
    sh.checker.OnCommitAttempt(token, std::move(writes));
  }
  const DbStatus st = co_await db.Commit(txn);
  if (tracked) {
    if (st == DbStatus::kOk) {
      sh.checker.OnCommitAcked(token);
    } else {
      sh.checker.OnAborted(token);
    }
  }
  co_return st == DbStatus::kOk;
}

// One TPC-C-lite transaction of class `pick` (new-order, payment,
// order-status, delivery, stock-level), as in rlwork::TpccLite. Returns
// false on a lock timeout (the engine has already aborted the transaction;
// Abort is a no-op then and keeps the call sequence explicit).
Task<bool> TpccTxn(Shared& sh, Database& db, const rlwork::TpccConfig& cfg,
                   rlsim::Rng& rng, size_t pick, uint64_t* order_seq,
                   uint64_t* history_seq) {
  using rlwork::MakeKey;
  using rlwork::RowValue;
  using rlwork::Table;
  const uint32_t value_bytes = db.options().profile.value_bytes;
  const uint64_t w = rng.NextBelow(cfg.warehouses);
  const uint64_t d = rng.NextBelow(cfg.districts_per_warehouse);
  const uint64_t c = rng.NextBelow(cfg.customers_per_district);
  const uint64_t seed = rng.Next();
  const uint64_t txn = db.Begin();
  std::vector<TrackedWrite> writes;
  bool ok = true;
  const auto get = [&](uint64_t key) -> Task<bool> {
    co_return co_await db.Get(txn, key, nullptr) != DbStatus::kLockTimeout;
  };
  const auto put = [&](uint64_t key, uint64_t write_seed) -> Task<bool> {
    std::vector<uint8_t> value = RowValue(value_bytes, key, write_seed);
    if (co_await db.Put(txn, key, value) != DbStatus::kOk) {
      co_return false;
    }
    std::erase_if(writes, [key](const TrackedWrite& tw) { return tw.key == key; });
    writes.push_back(TrackedWrite{.key = key, .value = std::move(value)});
    co_return true;
  };

  switch (pick) {
    case 0: {  // new-order: customer, hot district row, 5..15 stock items
      // Items are visited in ascending order, as TPC-C implementations do,
      // so concurrent new-orders never deadlock on stock rows.
      std::vector<uint64_t> items(5 + rng.NextBelow(11));
      for (uint64_t& item : items) {
        item = rng.NextBelow(cfg.items);
      }
      std::sort(items.begin(), items.end());
      const uint64_t dk = MakeKey(Table::kDistrict, w, d, 0);
      ok = co_await get(MakeKey(Table::kCustomer, w, d, c)) &&
           co_await get(dk) && co_await put(dk, seed);
      const uint64_t order_id = (*order_seq)++;
      for (uint64_t i = 0; ok && i < items.size(); ++i) {
        const uint64_t sk = MakeKey(Table::kStock, w, 0, items[i]);
        ok = co_await get(sk) && co_await put(sk, seed + i) &&
             co_await put(MakeKey(Table::kOrderLine, w, d, order_id * 16 + i),
                          seed ^ i);
      }
      ok = ok && co_await put(MakeKey(Table::kOrder, w, d, order_id), seed);
      break;
    }
    case 1: {  // payment: customer update plus a history insert
      const uint64_t ck = MakeKey(Table::kCustomer, w, d, c);
      ok = co_await get(ck) && co_await put(ck, seed) &&
           co_await put(MakeKey(Table::kHistory, w, d, (*history_seq)++), seed);
      break;
    }
    case 2:  // order-status: read-only
      ok = co_await get(MakeKey(Table::kCustomer, w, d, c));
      break;
    case 3: {  // delivery: one customer update
      const uint64_t ck = MakeKey(Table::kCustomer, w, d, c);
      ok = co_await get(ck) && co_await put(ck, seed);
      break;
    }
    default: {  // stock-level: eight stock reads, in ascending order
      std::vector<uint64_t> items(8);
      for (uint64_t& item : items) {
        item = rng.NextBelow(cfg.items);
      }
      std::sort(items.begin(), items.end());
      for (size_t i = 0; ok && i < items.size(); ++i) {
        ok = co_await get(MakeKey(Table::kStock, w, 0, items[i]));
      }
      break;
    }
  }
  if (!ok) {
    co_await db.Abort(txn);
    co_return false;
  }
  co_return co_await CommitTracked(sh, db, txn, std::move(writes));
}

Task<void> OltpClient(Shared& sh, const rlwork::TpccConfig& cfg, int client,
                      uint64_t seed, const bool* stop) {
  rlsim::Rng rng(DeriveSeed(seed, static_cast<uint64_t>(client)));
  const rlsim::DiscreteDistribution mix(
      {cfg.new_order_weight, cfg.payment_weight, cfg.order_status_weight,
       cfg.delivery_weight, cfg.stock_level_weight});
  // Per-client id spaces keep order/history inserts conflict-free.
  uint64_t order_seq = static_cast<uint64_t>(client) << 22;
  uint64_t history_seq = static_cast<uint64_t>(client) << 22;
  while (!*stop) {
    co_await sh.sim.Sleep(Duration::Nanos(static_cast<int64_t>(
        rng.Exponential(static_cast<double>(cfg.think_time.nanos())))));
    const TimePoint start = sh.sim.now();
    rlsim::SpanScope span(sh.sim, "bench", "bench-txn", client);
    const bool ok = co_await TpccTxn(sh, sh.bed.db(), cfg, rng, mix.Next(rng),
                                     &order_seq, &history_seq);
    sh.Record(client, start, ok);
  }
}

// Zipfian KV transaction client (4 ops, half writes), as in
// rlwork::KvWorkload. Exits when its machine loses power.
Task<void> KvClient(Shared& sh, rlsim::ZipfianGenerator& zipf, int client,
                    uint64_t seed, const bool* stop) {
  rlsim::Rng rng(DeriveSeed(seed, static_cast<uint64_t>(client)));
  const uint32_t value_bytes = sh.bed.db().options().profile.value_bytes;
  try {
    while (!*stop) {
      co_await sh.sim.Sleep(Duration::Nanos(
          static_cast<int64_t>(rng.Exponential(50'000.0))));
      const TimePoint start = sh.sim.now();
      rlsim::SpanScope span(sh.sim, "bench", "bench-txn", client);
      Database& db = sh.bed.db();
      const uint64_t txn = db.Begin();
      std::vector<TrackedWrite> writes;
      bool ok = true;
      // Keys in ascending order: no lock cycles, so no deadlock timeouts.
      std::vector<uint64_t> keys(4);
      for (uint64_t& key : keys) {
        key = zipf.Next(rng);
      }
      std::sort(keys.begin(), keys.end());
      for (size_t i = 0; ok && i < keys.size(); ++i) {
        const uint64_t key = keys[i];
        if (rng.NextDouble() < 0.5) {
          auto value = rlwork::RowValue(value_bytes, key, rng.Next());
          ok = co_await db.Put(txn, key, value) == DbStatus::kOk;
          std::erase_if(writes,
                        [key](const TrackedWrite& w) { return w.key == key; });
          writes.push_back(TrackedWrite{.key = key, .value = std::move(value)});
        } else {
          ok = co_await db.Get(txn, key, nullptr) != DbStatus::kLockTimeout;
        }
      }
      if (!ok) {
        co_await db.Abort(txn);
      } else {
        ok = co_await CommitTracked(sh, db, txn, std::move(writes));
      }
      sh.Record(client, start, ok);
    }
  } catch (const rlvmm::GuestCrashed&) {
  } catch (const rldb::EngineHalted&) {
  }
}

// Shared skeleton of the single-node passes: setup (timed), one window
// segment, then the checks. `main` calls sim.Stop() once when set-up is
// done and once when the measured window ends.
PassResult RunSingleNode(const PassOptions& options,
                         rlharness::DiskSetup disks,
                         const std::function<Task<void>(Shared&)>& main) {
  PassResult out;
  const double h0 = HostSeconds();
  Simulator sim(options.seed);
  rlobs::SpanTracer tracer;
  if (options.trace) {
    sim.set_tracer(&tracer);
  }
  rlharness::Testbed bed(sim, SingleNodeTestbed(disks));
  Shared sh{sim, bed, out, {}};
  sim.Spawn(main(sh), "perfbench-main");
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
                               bed.log_disk_physical().options().name);
  }
  return out;
}

}  // namespace

PassResult RunOltp(const PassOptions& options, bool ssd_log) {
  const rlwork::TpccConfig cfg = OltpSizing();
  const Duration window = Duration::Nanos(
      static_cast<int64_t>(options.window * 1e9));
  return RunSingleNode(
      options,
      ssd_log ? rlharness::DiskSetup::kSsdLog : rlharness::DiskSetup::kSharedHdd,
      [&](Shared& sh) -> Task<void> {
        Simulator& s = sh.sim;
        PassResult& out = sh.out;
        bool stop = false;
        co_await sh.bed.Start();
        rlwork::TpccLite loader(s, cfg);
        co_await loader.LoadInitial(sh.bed.db());
        out.clients = kOltpClients;
        for (int c = 0; c < kOltpClients; ++c) {
          s.Spawn(OltpClient(sh, cfg, c, options.seed, &stop));
        }
        co_await s.Sleep(Duration::Millis(500));  // warm up
        s.Stop();
        const LayerCounters db0 = ReadDb(sh.bed.db());
        const LayerCounters dev0 = ReadDevices(sh.bed);
        sh.measuring = true;
        const double load_start = HostSeconds();
        co_await s.Sleep(window);
        sh.measuring = false;
        out.window_s = window.ToSecondsF();
        out.load_host_s = HostSeconds() - load_start;
        out.layers = ReadDb(sh.bed.db()) - db0;
        out.layers += ReadDevices(sh.bed) - dev0;
        ReadGauges({&sh.bed}, nullptr, out.gauges);
        stop = true;
        s.Stop();
        // Let every client finish its transaction (lock timeout is 5 s).
        co_await s.Sleep(Duration::Seconds(6));
        const rlfault::VerifyResult verdict =
            co_await sh.checker.VerifyAfterRecovery(sh.bed.db());
        out.lost_acked += static_cast<int64_t>(verdict.lost_writes);
        if (!verdict.ok()) {
          Fail(out, "durability check: " + verdict.Summary());
        }
        co_await sh.bed.db().CheckTreeStructure();
        sh.finished = true;
      });
}

PassResult RunPowercut(const PassOptions& options) {
  const int cuts = std::max(1, static_cast<int>(options.window + 0.5));
  return RunSingleNode(
      options, rlharness::DiskSetup::kSharedHdd,
      [&](Shared& sh) -> Task<void> {
        Simulator& s = sh.sim;
        PassResult& out = sh.out;
        rlharness::Testbed& bed = sh.bed;
        rlsim::ZipfianGenerator zipf(kPowercutKeys, 0.6);
        rlsim::Rng rng(DeriveSeed(options.seed, ~0ull));
        // Each cycle's clients watch their own stop flag: a cut strands
        // some of them parked inside the dead engine until teardown.
        std::vector<std::unique_ptr<bool>> stops;
        co_await bed.Start();
        rlwork::KvWorkload loader(s, rlwork::KvConfig{.key_space = kPowercutKeys});
        co_await loader.Load(bed.db(), kPowercutPreload);
        out.clients = kPowercutClients;
        const auto spawn_clients = [&](int generation) {
          stops.push_back(std::make_unique<bool>(false));
          for (int c = 0; c < kPowercutClients; ++c) {
            s.Spawn(KvClient(sh, zipf, generation * 100 + c, options.seed,
                             stops.back().get()));
          }
        };
        spawn_clients(0);
        co_await s.Sleep(Duration::Millis(300));  // warm up
        s.Stop();
        const LayerCounters dev0 = ReadDevices(bed);
        LayerCounters db_base = ReadDb(bed.db());
        for (int cut = 1; cut <= cuts; ++cut) {
          if (cut > 1) {
            spawn_clients(cut);
          }
          // A fixed stretch of measured load, then an unmeasured wait for a
          // real drain backlog to cut at: half the admission budget, capped
          // at 1 MiB, or whatever is buffered after a random 1-2 s.
          sh.measuring = true;
          const double load_start = HostSeconds();
          co_await s.Sleep(kLoadPerCut);
          out.load_host_s += HostSeconds() - load_start;
          sh.measuring = false;
          out.window_s += kLoadPerCut.ToSecondsF();
          const uint64_t target = std::min<uint64_t>(
              bed.rapilog()->max_buffer_bytes() / 2, 1024 * 1024);
          const TimePoint give_up =
              s.now() + Duration::Millis(rng.UniformInt(1000, 2000));
          while (bed.rapilog()->buffered_bytes() < target && s.now() < give_up) {
            co_await s.Sleep(Duration::Millis(5));
          }
          out.gauges.backlog_at_cut_kib.push_back(
              static_cast<double>(bed.rapilog()->buffered_bytes()) / 1024.0);
          out.layers += ReadDb(bed.db()) - db_base;
          bed.CutPower();
          *stops.back() = true;
          ++out.cuts;
          co_await s.Sleep(Duration::Seconds(1));  // rails drop inside this
          const TimePoint r0 = s.now();
          const double h0 = HostSeconds();
          co_await bed.RestorePowerAndRecover();
          out.recovery_host_s.push_back(HostSeconds() - h0);
          out.recovery_ns.push_back((s.now() - r0).nanos());
          const rlfault::VerifyResult verdict =
              co_await sh.checker.VerifyAfterRecovery(bed.db());
          co_await bed.db().CheckTreeStructure();
          out.lost_acked += static_cast<int64_t>(verdict.lost_writes);
          if (!verdict.ok()) {
            Fail(out, "cut " + std::to_string(cut) + ": " + verdict.Summary());
          }
          if (bed.rapilog()->lost_data()) {
            Fail(out, "cut " + std::to_string(cut) +
                          ": RapiLog lost acknowledged data");
          }
          // The recovered engine's counters start at zero and already hold
          // this recovery's work.
          db_base = LayerCounters{};
        }
        out.layers += ReadDevices(bed) - dev0;
        ReadGauges({&bed}, nullptr, out.gauges);
        s.Stop();
        co_await s.Sleep(Duration::Seconds(1));  // last clients see their flag
        sh.finished = true;
      });
}

}  // namespace perfbench
