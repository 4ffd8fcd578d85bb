// Component microbenchmarks (google-benchmark): costs of the simulation
// substrate itself — event dispatch, coroutine wakeups, RNG, CRC, histogram
// recording, kernel IPC round-trips, B+-tree operations.
//
// `bench_micro --json FILE` bypasses google-benchmark and runs a small fixed
// perf suite instead, writing BENCH_perf.json: CRC-32C throughput (slice-by-8
// vs the table-driven reference), simulator event dispatch rate (pooled heap
// vs a naive priority_queue<std::function> baseline), chaos-campaign
// wall-clock at --jobs 1 vs --jobs N, and the host plane of one OLTP and
// one fleet (2PC) scenario (host time, heap allocations and coroutine
// frames per committed transaction, the sector bytes their disk images hold
// at the window's end; events/s for OLTP). These are the
// numbers later changes are judged against; the suite also cross-checks
// that the parallel campaign reproduces the sequential corpus hash.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
// rapicheck: new-ok (the header that declares std::bad_alloc)
#include <new>
#include <queue>
#include <string>

#include "bench/bench_common.h"
#include "src/db/btree.h"
#include "src/db/buffer_pool.h"
#include "src/db/database.h"
#include "src/faults/chaos/chaos_explorer.h"
#include "src/harness/fleet_testbed.h"
#include "src/harness/parallel_runner.h"
#include "src/microkernel/kernel.h"
#include "src/sim/crc32.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/storage/block_device.h"
#include "src/workload/fleet_workload.h"
#include "src/workload/tpcc_lite.h"

// Every heap allocation through operator new, counted for the host-plane
// scenario. This binary only: the simulator itself never counts.
namespace {
std::atomic<uint64_t> g_heap_allocations{0};
}  // namespace

// Out of line, like the deletes below, so the compiler never pairs an
// inlined malloc() or free() with a new- or delete-expression
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

void BM_EventSchedule(benchmark::State& state) {
  rlsim::Simulator sim;
  int sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(rlsim::Duration::Micros(i), [&sink] { ++sink; });
    }
    sim.Run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventSchedule);

void BM_CoroutinePingPong(benchmark::State& state) {
  for (auto _ : state) {
    rlsim::Simulator sim;
    sim.Spawn([](rlsim::Simulator& s) -> rlsim::Task<void> {
      for (int i = 0; i < 1000; ++i) {
        co_await s.Sleep(rlsim::Duration::Nanos(1));
      }
    }(sim));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutinePingPong);

void BM_RngNext(benchmark::State& state) {
  rlsim::Rng rng(1);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= rng.Next();
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RngNext);

void BM_ZipfianNext(benchmark::State& state) {
  rlsim::Rng rng(1);
  rlsim::ZipfianGenerator zipf(1'000'000, 0.99);
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= zipf.Next(rng);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ZipfianNext);

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xAB);
  uint32_t sink = 0;
  for (auto _ : state) {
    sink ^= rlsim::Crc32c(data);
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(8192);

void BM_HistogramRecord(benchmark::State& state) {
  rlsim::Histogram h;
  int64_t v = 1;
  for (auto _ : state) {
    h.Record(v);
    v = (v * 7) % 1'000'000 + 1;
  }
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_KernelIpcRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    rlsim::Simulator sim;
    rlkern::Kernel kernel(sim);
    const rlkern::ObjectId root = kernel.BootstrapCNode(16);
    kernel.BootstrapUntyped(root, 0, 1 << 16);
    kernel.Retype(rlkern::SlotAddr{root, 0}, rlkern::ObjectType::kEndpoint, 0,
                  root, 1, 1);
    const rlkern::SlotAddr ep{root, 1};
    sim.Spawn([](rlkern::Kernel& k, rlkern::SlotAddr e) -> rlsim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        rlkern::Received got;
        co_await k.Recv(e, &got);
        rlkern::IpcMessage reply;
        k.Reply(got.reply, std::move(reply));
      }
    }(kernel, ep));
    sim.Spawn([](rlkern::Kernel& k, rlkern::SlotAddr e) -> rlsim::Task<void> {
      for (int i = 0; i < 100; ++i) {
        rlkern::IpcMessage msg;
        rlkern::IpcMessage reply;
        co_await k.Call(e, std::move(msg), &reply);
      }
    }(kernel, ep));
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_KernelIpcRoundTrip);

void BM_BTreePut(benchmark::State& state) {
  for (auto _ : state) {
    rlsim::Simulator sim;
    rlstor::SimBlockDevice dev(
        sim,
        rlstor::SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20}},
        rlstor::MakeDefaultSsd());
    rldb::BufferPool pool(sim, dev, 8192, 4096);
    uint64_t next_free = 1;
    rldb::BTree tree(pool, 96, &next_free);
    uint64_t root = tree.CreateEmpty();
    const std::vector<uint8_t> value(96, 0x11);
    for (uint64_t k = 0; k < 2000; ++k) {
      benchmark::DoNotOptimize(tree.Put(&root, k * 7919 % 100000, value));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_BTreePut);

// --- Fixed perf suite (--json) ----------------------------------------------
//
// The suite measures real host time, which is exactly what the simulator
// bans everywhere else; this binary is a host-side measurement tool, not
// part of any simulation.

// rapicheck: clock-ok (host-side perf measurement tool, outside the sim)
using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

// MiB/s of `crc` over a 1 MiB pseudo-random buffer, fixed iteration count so
// both implementations see identical input.
double CrcThroughputMibps(uint32_t (*crc)(std::span<const uint8_t>,
                                          uint32_t)) {
  constexpr size_t kBufBytes = 1 << 20;
  constexpr int kWarmup = 4;
  constexpr int kIters = 64;
  std::vector<uint8_t> buf(kBufBytes);
  rlsim::Rng rng(1);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  uint32_t sink = 0;
  for (int i = 0; i < kWarmup; ++i) {
    sink ^= crc(buf, sink);
  }
  const WallClock::time_point t0 = WallClock::now();
  for (int i = 0; i < kIters; ++i) {
    sink ^= crc(buf, sink);
  }
  const double secs = SecondsSince(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(kIters) * kBufBytes / (1 << 20) / secs;
}

constexpr int kEventBatch = 1000;
constexpr int kEventRounds = 200;

// Events/sec through the simulator's pooled binary heap: the BM_EventSchedule
// workload, timed directly.
double PooledEventsPerSec() {
  rlsim::Simulator sim;
  int sink = 0;
  const WallClock::time_point t0 = WallClock::now();
  for (int round = 0; round < kEventRounds; ++round) {
    for (int i = 0; i < kEventBatch; ++i) {
      sim.Schedule(rlsim::Duration::Micros(i), [&sink] { ++sink; });
    }
    sim.Run();
  }
  const double secs = SecondsSince(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(kEventRounds) * kEventBatch / secs;
}

// The pre-optimisation baseline, reconstructed locally: one heap node per
// event, each holding its std::function by value (so every push allocates
// and every pop moves/destroys one).
struct NaiveEvent {
  int64_t at_nanos;
  uint64_t seq;
  std::function<void()> fn;
};
struct NaiveLater {
  bool operator()(const NaiveEvent& a, const NaiveEvent& b) const {
    if (a.at_nanos != b.at_nanos) return a.at_nanos > b.at_nanos;
    return a.seq > b.seq;
  }
};

double NaiveQueueEventsPerSec() {
  std::priority_queue<NaiveEvent, std::vector<NaiveEvent>, NaiveLater> queue;
  int sink = 0;
  uint64_t seq = 0;
  const WallClock::time_point t0 = WallClock::now();
  for (int round = 0; round < kEventRounds; ++round) {
    for (int i = 0; i < kEventBatch; ++i) {
      queue.push(NaiveEvent{i * 1000, seq++, [&sink] { ++sink; }});
    }
    while (!queue.empty()) {
      // const_cast mirrors what the old simulator did to move the closure
      // out of priority_queue's const top().
      NaiveEvent ev = std::move(const_cast<NaiveEvent&>(queue.top()));
      queue.pop();
      ev.fn();
    }
  }
  const double secs = SecondsSince(t0);
  benchmark::DoNotOptimize(sink);
  return static_cast<double>(kEventRounds) * kEventBatch / secs;
}

struct CampaignTiming {
  double seconds = 0;
  uint64_t corpus_hash = 0;
};

CampaignTiming TimeCampaign(int jobs, uint64_t episodes) {
  rlchaos::ExplorerOptions opts;
  opts.base_seed = 1;
  opts.episodes = episodes;
  opts.jobs = jobs;
  const WallClock::time_point t0 = WallClock::now();
  const rlchaos::ExplorerReport report =
      rlchaos::ChaosExplorer(opts).RunCampaign();
  CampaignTiming out;
  out.seconds = SecondsSince(t0);
  out.corpus_hash = report.corpus_hash;
  return out;
}

// The host plane of a fixed scenario, measured over a 1 s window of virtual
// time after its warm-up. Allocation and frame counts, the staged bytes and
// the disk-image size are deterministic; the host rates are wall-clock.
struct HostScenario {
  double host_us_per_txn = 0;
  double events_per_sec = 0;
  double heap_allocs_per_txn = 0;
  double frames_per_txn = 0;
  // Host memory a checkpoint staged (Database::Stats::staged_bytes), per
  // checkpoint that completed in the window.
  double checkpoint_staged_kib = 0;
  double disk_image_mib = 0;  // sector bytes the disks hold at window end
};

// Checkpoints completed and bytes staged, summed over a scenario's engines.
struct CheckpointTotals {
  int64_t checkpoints = 0;
  int64_t staged_bytes = 0;

  void Add(const rldb::Database& db) {
    checkpoints += db.stats().checkpoints.value();
    staged_bytes += db.stats().staged_bytes.value();
  }
};

// Sector bytes held by a testbed's disk images (one image when the log
// shares the data disk).
double DiskImageMib(rlharness::Testbed& bed) {
  uint64_t bytes = bed.data_disk().image().stored_bytes();
  if (&bed.log_disk_physical() != &bed.data_disk()) {
    bytes += bed.log_disk_physical().image().stored_bytes();
  }
  return static_cast<double>(bytes) / (1 << 20);
}

// Runs `sim` for the window; `committed` reads the scenario's commit count
// and `checkpoints` its checkpoint totals.
HostScenario MeasureWindow(
    rlsim::Simulator& sim, const std::function<int64_t()>& committed,
    const std::function<CheckpointTotals()>& checkpoints) {
  const int64_t committed0 = committed();
  const CheckpointTotals checkpoints0 = checkpoints();
  const uint64_t allocs0 = g_heap_allocations.load();
  const uint64_t frames0 = rlsim::frame_pool::allocations();
  const WallClock::time_point t0 = WallClock::now();
  const size_t events = sim.RunFor(rlsim::Duration::Seconds(1));
  const double secs = SecondsSince(t0);
  const double txns = static_cast<double>(committed() - committed0);
  const CheckpointTotals checkpoints1 = checkpoints();
  HostScenario out;
  out.checkpoint_staged_kib =
      static_cast<double>(checkpoints1.staged_bytes -
                          checkpoints0.staged_bytes) /
      1024 /
      static_cast<double>(checkpoints1.checkpoints - checkpoints0.checkpoints);
  out.host_us_per_txn = secs * 1e6 / txns;
  out.events_per_sec = static_cast<double>(events) / secs;
  out.heap_allocs_per_txn =
      static_cast<double>(g_heap_allocations.load() - allocs0) / txns;
  out.frames_per_txn =
      static_cast<double>(rlsim::frame_pool::allocations() - frames0) / txns;
  return out;
}

// Single-node OLTP, sized like perfbench's oltp-ssdlog: TPC-C-lite with 16
// clients on RapiLog with an SSD log, set up and warmed up for 200 ms of
// virtual time.
HostScenario RunHostScenario() {
  rlsim::Simulator sim(1);
  rlharness::Testbed bed(
      sim, rlbench::DefaultTestbed(rlharness::DeploymentMode::kRapiLog,
                                   rlharness::DiskSetup::kSsdLog,
                                   rldb::PostgresLikeProfile()));
  rlwork::TpccLite tpcc(sim, rlbench::DefaultTpcc());
  rlwork::ClientDriver clients(sim);
  sim.Spawn([](rlsim::Simulator& s, rlharness::Testbed& b,
               rlwork::TpccLite& w,
               rlwork::ClientDriver& d) -> rlsim::Task<void> {
    co_await b.Start();
    co_await w.LoadInitial(b.db());
    d.Spawn(16, w.Clients(b.db()));
    co_await s.Sleep(rlsim::Duration::Millis(200));
    s.Stop();
  }(sim, bed, tpcc, clients));
  sim.Run();
  HostScenario out = MeasureWindow(
      sim, [&clients] { return clients.stats().committed.value(); },
      [&bed] {
        CheckpointTotals totals;
        totals.Add(bed.db());
        return totals;
      });
  out.disk_image_mib = DiskImageMib(bed);
  clients.Stop();
  sim.Run();
  return out;
}

// The fleet's message path, sized like perfbench's fleet-2pc: 2 shards with
// E13's shard sizing, 16 FleetWorkload clients, 60% cross-shard 2PC, a
// 10 s vote timeout; set up and warmed up for 200 ms of virtual time.
constexpr rlsim::Duration kFleetVoteTimeout = rlsim::Duration::Seconds(10);

HostScenario RunFleetHostScenario() {
  rlsim::Simulator sim(1);
  rlharness::FleetOptions fopt;
  fopt.shards = 2;
  fopt.shard.db.profile = rldb::PostgresLikeProfile();
  fopt.shard.db.pool_pages = 512;
  fopt.shard.db.journal_pages = 300;
  fopt.shard.db.profile.checkpoint_dirty_pages = 128;
  fopt.shard.db.profile.lock_timeout = rlsim::Duration::Seconds(5);
  fopt.coordinator.vote_timeout = kFleetVoteTimeout;
  rlharness::FleetTestbed fleet(sim, fopt);
  rlwork::FleetWorkload work(
      sim, rlwork::FleetConfig{.cross_shard_probability = 0.6});
  rlwork::ClientDriver clients(sim);
  sim.Spawn([](rlsim::Simulator& s, rlharness::FleetTestbed& f,
               rlwork::FleetWorkload& w,
               rlwork::ClientDriver& d) -> rlsim::Task<void> {
    co_await f.Start();
    d.Spawn(16, w.Clients(f.coordinator(), f.directory()));
    co_await s.Sleep(rlsim::Duration::Millis(200));
    s.Stop();
    // The window; then every client finishes its transaction within the
    // vote timeout.
    co_await s.Sleep(rlsim::Duration::Seconds(1));
    d.Stop();
    co_await s.Sleep(kFleetVoteTimeout + rlsim::Duration::Seconds(1));
    co_await f.Shutdown();
  }(sim, fleet, work, clients));
  sim.Run();
  HostScenario out = MeasureWindow(
      sim, [&clients] { return clients.stats().committed.value(); },
      [&fleet] {
        CheckpointTotals totals;
        for (size_t i = 0; i < fleet.shard_count(); ++i) {
          totals.Add(fleet.shard(i).db());
        }
        return totals;
      });
  for (size_t i = 0; i < fleet.shard_count(); ++i) {
    out.disk_image_mib += DiskImageMib(fleet.shard(i));
  }
  sim.Run();
  return out;
}

int RunPerfSuite(const std::string& json_path, int jobs) {
  const double crc_table = CrcThroughputMibps(&rlsim::Crc32cTableDriven);
  const double crc_slice8 = CrcThroughputMibps(&rlsim::Crc32cSlice8);
  const double pooled_eps = PooledEventsPerSec();
  const double naive_eps = NaiveQueueEventsPerSec();

  const HostScenario oltp = RunHostScenario();
  const HostScenario fleet = RunFleetHostScenario();

  constexpr uint64_t kCampaignEpisodes = 40;
  const CampaignTiming seq = TimeCampaign(1, kCampaignEpisodes);
  const CampaignTiming par = TimeCampaign(jobs, kCampaignEpisodes);
  if (seq.corpus_hash != par.corpus_hash) {
    std::fprintf(stderr,
                 "FATAL: campaign corpus hash diverged across job counts "
                 "(jobs=1: %016llx, jobs=%d: %016llx)\n",
                 static_cast<unsigned long long>(seq.corpus_hash), jobs,
                 static_cast<unsigned long long>(par.corpus_hash));
    return 1;
  }

  rlbench::BenchJsonWriter writer;
  writer.Add("crc32c_table_mibps", crc_table, "MiB/s");
  writer.Add("crc32c_slice8_mibps", crc_slice8, "MiB/s");
  writer.Add("crc32c_speedup", crc_slice8 / crc_table, "x");
  writer.Add("events_per_sec_pooled", pooled_eps, "events/s");
  writer.Add("events_per_sec_naive_queue", naive_eps, "events/s");
  writer.Add("event_dispatch_speedup", pooled_eps / naive_eps, "x");
  writer.Add("campaign_40ep_jobs1_sec", seq.seconds, "s");
  writer.Add("campaign_40ep_jobsN_sec", par.seconds, "s");
  writer.Add("campaign_jobs", jobs, "threads");
  writer.Add("campaign_speedup", seq.seconds / par.seconds, "x");
  writer.Add("oltp_host_us_per_txn", oltp.host_us_per_txn, "us");
  writer.Add("oltp_sim_events_per_sec", oltp.events_per_sec, "events/s");
  writer.Add("oltp_heap_allocs_per_txn", oltp.heap_allocs_per_txn,
             "allocs/txn");
  writer.Add("oltp_frames_per_txn", oltp.frames_per_txn, "frames/txn");
  writer.Add("oltp_checkpoint_staged_kib", oltp.checkpoint_staged_kib, "KiB");
  writer.Add("oltp_disk_image_mib", oltp.disk_image_mib, "MiB");
  writer.Add("fleet_host_us_per_txn", fleet.host_us_per_txn, "us");
  writer.Add("fleet_heap_allocs_per_txn", fleet.heap_allocs_per_txn,
             "allocs/txn");
  writer.Add("fleet_frames_per_txn", fleet.frames_per_txn, "frames/txn");
  writer.Add("fleet_checkpoint_staged_kib", fleet.checkpoint_staged_kib,
             "KiB");
  writer.Add("fleet_disk_image_mib", fleet.disk_image_mib, "MiB");
  std::fputs(writer.ToString().c_str(), stdout);
  return writer.WriteFile(json_path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Strips the --benchmark_* flags, so the table sees only the rest.
  benchmark::Initialize(&argc, argv);
  std::string json_path;
  int jobs = rlharness::DefaultJobs();
  rlbench::ParseFlags(argc, argv, "bench_micro",
                      {rlbench::Path("--json", &json_path),
                       rlbench::Jobs("--jobs", &jobs)});
  if (!json_path.empty()) {
    return RunPerfSuite(json_path, jobs);
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
