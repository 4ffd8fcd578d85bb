// E14 — bounded-time recovery: virtual recovery time across WAL length x
// checkpoint interval x redo partition count.
//
// Each cell builds its crash state from scratch in an independent seeded
// simulation — a single writer streams multi-op transactions (optionally
// checkpointing every C commits), the mains fail, and the reopen is the
// measured recovery. Cells that differ only in the partition count share a
// seed, so they recover bit-identical disk images and the timing axis
// isolates the redo stream count. The sweep fans across --jobs worker threads with
// results reduced in cell order: stdout and BENCH_e14.json are
// byte-identical at any job count.
//
//   --records N       pin the WAL-length axis to {N} redo records
//   --partitions K    pin the partition axis to {K}
//   --budget small|full   grid size (default full)
//   --jobs N          worker threads; 0 = all cores
//   --seed S          base seed (default 42)
//   --json FILE       write the sweep as BENCH-style JSON
//   --trace-out FILE  re-run the first cell with the span tracer and write
//                     Chrome trace-event JSON (recover / redo-partitioned /
//                     redo-install spans per worker) loadable in Perfetto
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/db/database.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/span_tracer.h"
#include "src/sim/bytes.h"
#include "src/storage/block_device.h"

namespace {

using rlbench::Fmt;
using rlbench::FmtDur;
using rlbench::PrintHeader;
using rlbench::Table;
using rldb::Database;
using rldb::DbOptions;
using rldb::NativeCpu;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

constexpr uint64_t kKeySpace = 4096;
constexpr uint64_t kOpsPerTxn = 8;

struct Cell {
  uint64_t records;       // redo records in the WAL at the cut
  uint64_t ckpt_commits;  // checkpoint every C commits; 0 = never
  uint32_t partitions;    // redo partition count on the reopen
};

struct CellResult {
  Duration recovery = Duration::Zero();
  int64_t replayed = 0;  // post-horizon redo candidates
  int64_t skipped = 0;   // candidates retired by the fuzzy horizons
  uint64_t content_hash = 0;
};

std::vector<uint8_t> MakeValue(uint32_t value_bytes, uint64_t salt) {
  std::vector<uint8_t> v(value_bytes);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<uint8_t>(salt * 131 + i * 7);
  }
  return v;
}

CellResult RunCell(const Cell& cell, uint64_t seed,
                   rlsim::TraceEventSink* sink) {
  Simulator sim(seed);
  if (sink != nullptr) {
    sim.set_tracer(sink);
  }
  NativeCpu cpu(sim);
  SimBlockDevice data(sim,
                      SimBlockDevice::Options{.geometry = {.sector_count =
                                                               1 << 19},
                                              .cache_policy =
                                                  WriteCachePolicy::kWriteBack,
                                              .name = "data"},
                      rlstor::MakeDefaultSsd());
  SimBlockDevice log(sim,
                     SimBlockDevice::Options{.geometry = {.sector_count =
                                                              1 << 19},
                                             .cache_policy =
                                                 WriteCachePolicy::kWriteBack,
                                             .name = "log"},
                     rlstor::MakeDefaultSsd());
  DbOptions options;
  options.profile = rldb::PostgresLikeProfile();
  options.profile.checkpoint_dirty_pages = 256;
  options.pool_pages = 1024;
  options.journal_pages = 600;
  DbOptions ropt = options;
  ropt.recovery.partitions = cell.partitions;

  CellResult result;
  sim.Spawn([](Simulator& s, NativeCpu& c, SimBlockDevice& d,
               SimBlockDevice& l, DbOptions opt, DbOptions reopen,
               const Cell& cfg, CellResult& out) -> Task<void> {
    auto db = co_await Database::Open(s, c, d, l, opt);
    const uint32_t value_bytes = db->options().profile.value_bytes;
    const uint64_t txns = cfg.records / kOpsPerTxn;
    for (uint64_t t = 0; t < txns; ++t) {
      const uint64_t txn = db->Begin();
      for (uint64_t o = 0; o < kOpsPerTxn; ++o) {
        // Knuth-hash key walk: spreads writes over every redo slice.
        const uint64_t key = ((t * kOpsPerTxn + o) * 2654435761ull) % kKeySpace;
        co_await db->Put(txn, key, MakeValue(value_bytes, t * kOpsPerTxn + o));
      }
      co_await db->Commit(txn);
      if (cfg.ckpt_commits != 0 && (t + 1) % cfg.ckpt_commits == 0) {
        co_await db->Checkpoint();
      }
    }

    // Mains failure: caches drop, the dead engine is torn down in the dark,
    // power returns, and the reopen is the measured recovery.
    d.PowerLoss();
    l.PowerLoss();
    co_await db->Close();
    db.reset();
    d.PowerRestore();
    l.PowerRestore();

    const rlsim::TimePoint before = s.now();
    db = co_await Database::Open(s, c, d, l, reopen);
    out.recovery = s.now() - before;
    out.replayed = db->stats().recovered_records.value();
    out.skipped = db->stats().redo_skipped_by_horizon.value();
    out.content_hash = co_await db->ContentHash();
    co_await db->Close();
  }(sim, cpu, data, log, options, ropt, cell, result));
  sim.Run();
  if (sink != nullptr) {
    sim.set_tracer(nullptr);
  }
  return result;
}

// FNV-1a over every cell's integer observations: one line CI can diff
// between --jobs 1 and --jobs N runs (and between partition counts, since
// the content hash of same-seed cells must not move with K).
uint64_t SweepHash(const std::vector<CellResult>& results) {
  rlsim::Fnv1a h;
  for (const CellResult& r : results) {
    h.MixU64(static_cast<uint64_t>(r.recovery.nanos()));
    h.MixU64(static_cast<uint64_t>(r.replayed));
    h.MixU64(static_cast<uint64_t>(r.skipped));
    h.MixU64(r.content_hash);
  }
  return h.value();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  int jobs = 1;
  uint64_t pin_records = 0;
  uint64_t pin_partitions = 0;
  std::string budget_name = "full";
  std::string json_path;
  std::string trace_out;
  rlbench::ParseFlags(
      argc, argv, "bench_e14_recovery",
      {rlbench::Uint("--seed", &seed), rlbench::Jobs("--jobs", &jobs),
       rlbench::Uint("--records", &pin_records),
       rlbench::Uint("--partitions", &pin_partitions, UINT32_MAX),
       rlbench::Choice("--budget", {"small", "full"}, &budget_name),
       rlbench::Path("--json", &json_path),
       rlbench::Path("--trace-out", &trace_out)});
  const bool small = budget_name == "small";

  std::vector<uint64_t> record_axis = small
                                          ? std::vector<uint64_t>{16384}
                                          : std::vector<uint64_t>{16384, 65536};
  if (pin_records > 0) {
    record_axis = {pin_records};
  }
  // 768 deliberately does not divide the txn counts: the last checkpoint
  // leaves a real WAL tail, so these cells measure bounded-by-tail recovery
  // instead of an empty replay.
  const std::vector<uint64_t> ckpt_axis =
      small ? std::vector<uint64_t>{0} : std::vector<uint64_t>{0, 768};
  std::vector<uint32_t> partition_axis =
      small ? std::vector<uint32_t>{1, 8} : std::vector<uint32_t>{1, 2, 4, 8};
  if (pin_partitions > 0) {
    partition_axis = {static_cast<uint32_t>(pin_partitions)};
  }

  std::vector<Cell> cells;
  std::vector<uint64_t> cell_seeds;
  uint64_t image = 0;  // one crash image per (records, ckpt) pair
  for (const uint64_t r : record_axis) {
    for (const uint64_t c : ckpt_axis) {
      ++image;
      for (const uint32_t k : partition_axis) {
        cells.push_back(Cell{r, c, k});
        // K-cells of one image share the seed: identical crash state, so
        // the recovery-time column is a clean same-image comparison.
        cell_seeds.push_back(seed + image * 1000003ull);
      }
    }
  }

  PrintHeader(
      "E14: recovery time (WAL records x checkpoint interval x partitions)");
  // Deliberately no jobs=N echo: stdout must be byte-identical at any job
  // count so CI can diff two runs directly.
  std::printf("seed=%" PRIu64 " cells=%zu budget=%s\n", seed, cells.size(),
              small ? "small" : "full");

  const std::vector<CellResult> results = rlharness::RunJobs<CellResult>(
      jobs, cells.size(), [&cells, &cell_seeds](size_t i) {
        return RunCell(cells[i], cell_seeds[i], nullptr);
      });

  Table table;
  table.Row({"records", "ckpt-every", "K", "recovery", "replayed", "skipped",
             "speedup"});
  rlbench::BenchJsonWriter json;
  // K = first axis entry time of the current image, for the speedup
  // column; the axis always starts at K=1 unless pinned.
  Duration base = Duration::Zero();
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellResult& r = results[i];
    if (c.partitions == partition_axis.front()) {
      base = r.recovery;
    }
    const double speedup =
        r.recovery.nanos() == 0
            ? 0.0
            : static_cast<double>(base.nanos()) /
                  static_cast<double>(r.recovery.nanos());
    table.Row({std::to_string(c.records), std::to_string(c.ckpt_commits),
               std::to_string(c.partitions), FmtDur(r.recovery),
               std::to_string(r.replayed), std::to_string(r.skipped),
               Fmt(speedup, "%.2fx")});
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "e14.r%" PRIu64 "_c%" PRIu64 "_k%u",
                  c.records, c.ckpt_commits, c.partitions);
    json.Add(std::string(prefix) + ".recovery_us",
             static_cast<double>(r.recovery.nanos()) / 1000.0, "us");
    json.Add(std::string(prefix) + ".replayed",
             static_cast<double>(r.replayed), "records");
    json.Add(std::string(prefix) + ".skipped",
             static_cast<double>(r.skipped), "records");
    json.Add(std::string(prefix) + ".speedup_vs_seq", speedup, "x");
  }
  table.Print();
  std::printf("sweep hash %016" PRIx64 "\n", SweepHash(results));

  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  if (!trace_out.empty()) {
    // Dedicated traced re-run of the first cell, outside the sweep, so the
    // sweep's numbers and hash stay independent of tracing.
    rlobs::SpanTracer tracer;
    RunCell(cells[0], cell_seeds[0], &tracer);
    if (!rlobs::WriteChromeTrace(tracer, trace_out)) {
      return 1;
    }
    std::printf("wrote %s (%zu trace events)\n", trace_out.c_str(),
                tracer.records().size());
  }
  return 0;
}
