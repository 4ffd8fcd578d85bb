// E13 — sharded fleet behind a 2PC coordinator: throughput and
// client-observed commit latency across shard count x client count x
// cross-shard ratio.
//
// Each cell is an independent seeded simulation (its own FleetTestbed), so
// the sweep fans across --jobs worker threads with results reduced in cell
// order: stdout and BENCH_e13.json are byte-identical at any job count.
//
//   --shards N        pin the shard-count axis to {N} (default: sweep)
//   --cross-ratio X   pin the cross-shard-probability axis to {X}
//   --budget small|full   grid size and measurement window (default full)
//   --jobs N          worker threads; 0 = all cores
//   --seed S          base seed (default 42)
//   --json FILE       write the sweep as BENCH-style JSON
//   --trace-out FILE  re-run one cell with the span tracer and write Chrome
//                     trace-event JSON (2PC prepare/decide spans, WAL/disk
//                     spans, causal parent links) loadable in Perfetto; also
//                     prints the per-edge critical-path breakdown of the
//                     traced cell's transaction classes
//   --critical-path-json FILE  write that breakdown as JSON (needs
//                     --trace-out)
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/harness/fleet_testbed.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/critical_path.h"
#include "src/obs/span_tracer.h"
#include "src/sim/bytes.h"
#include "src/workload/fleet_workload.h"

namespace {

using rlbench::Fmt;
using rlbench::FmtDur;
using rlbench::PrintHeader;
using rlbench::Table;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;

struct Cell {
  size_t shards;
  int clients;
  double cross_ratio;
};

struct CellResult {
  double txns_per_sec = 0;
  double cross_frac = 0;  // committed cross-shard share
  Duration p50 = Duration::Zero();
  Duration p95 = Duration::Zero();
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t unknown = 0;
};

struct Budget {
  Duration warmup;
  Duration measure;
};

CellResult RunCell(const Cell& cell, const Budget& budget, uint64_t seed,
                   rlsim::TraceEventSink* sink) {
  Simulator sim(seed);
  if (sink != nullptr) {
    sim.set_tracer(sink);
  }
  rlharness::FleetOptions fopt;
  fopt.shards = cell.shards;
  fopt.shard.db.pool_pages = 512;
  fopt.shard.db.journal_pages = 300;
  fopt.shard.db.profile.checkpoint_dirty_pages = 128;
  rlharness::FleetTestbed fleet(sim, fopt);

  rlwork::FleetConfig wcfg;
  wcfg.cross_shard_probability = cell.cross_ratio;
  rlwork::FleetWorkload work(sim, wcfg);
  rlwork::ClientDriver clients(sim);

  CellResult result;
  sim.Spawn([](Simulator& s, rlharness::FleetTestbed& f,
               rlwork::FleetWorkload& w, rlwork::ClientDriver& d,
               const Cell& c, const Budget& b,
               CellResult& out) -> Task<void> {
    co_await f.Start();
    d.Spawn(c.clients, w.Clients(f.coordinator(), f.directory()));
    co_await s.Sleep(b.warmup);
    d.ResetStats();
    const rlsim::TimePoint t0 = s.now();
    co_await s.Sleep(b.measure);
    const double seconds = (s.now() - t0).ToSecondsF();
    d.Stop();

    const rlwork::ClientDriver::Stats& st = d.stats();
    out.committed = st.committed.value();
    out.aborted = st.aborted.value();
    out.unknown = st.unknown.value();
    out.txns_per_sec = static_cast<double>(out.committed) / seconds;
    out.cross_frac =
        out.committed == 0
            ? 0
            : static_cast<double>(
                  st.committed_by_kind[rlwork::FleetWorkload::kCrossShard]
                      .value()) /
                  static_cast<double>(out.committed);
    out.p50 = st.txn_latency.PercentileDuration(50);
    out.p95 = st.txn_latency.PercentileDuration(95);
    co_await f.Shutdown();
  }(sim, fleet, work, clients, cell, budget, result));
  sim.Run();
  if (sink != nullptr) {
    sim.set_tracer(nullptr);
  }
  return result;
}

// FNV-1a over every cell's integer observations: one line CI can diff
// between --jobs 1 and --jobs N runs.
uint64_t SweepHash(const std::vector<CellResult>& results) {
  rlsim::Fnv1a h;
  for (const CellResult& r : results) {
    h.MixU64(static_cast<uint64_t>(r.committed));
    h.MixU64(static_cast<uint64_t>(r.aborted));
    h.MixU64(static_cast<uint64_t>(r.unknown));
    h.MixU64(static_cast<uint64_t>(r.p50.nanos()));
    h.MixU64(static_cast<uint64_t>(r.p95.nanos()));
  }
  return h.value();
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  int jobs = 1;
  uint64_t pin_shards = 0;
  double pin_cross = -1.0;
  std::string budget_name = "full";
  std::string json_path;
  std::string trace_out;
  std::string critical_path_json;
  const std::string usage = rlbench::ParseFlags(
      argc, argv, "bench_e13_fleet",
      {rlbench::Uint("--seed", &seed), rlbench::Jobs("--jobs", &jobs),
       rlbench::Uint("--shards", &pin_shards),
       rlbench::Fraction("--cross-ratio", &pin_cross),
       rlbench::Choice("--budget", {"small", "full"}, &budget_name),
       rlbench::Path("--json", &json_path),
       rlbench::Path("--trace-out", &trace_out),
       rlbench::Path("--critical-path-json", &critical_path_json)});
  if (!critical_path_json.empty() && trace_out.empty()) {
    rlbench::UsageError("--critical-path-json needs --trace-out", usage);
  }
  const bool small = budget_name == "small";

  std::vector<size_t> shard_axis =
      small ? std::vector<size_t>{2, 4} : std::vector<size_t>{2, 3, 4, 6};
  if (pin_shards > 0) {
    shard_axis = {pin_shards};
  }
  std::vector<int> client_axis =
      small ? std::vector<int>{4, 8} : std::vector<int>{4, 8, 16};
  std::vector<double> cross_axis =
      small ? std::vector<double>{0.0, 0.6} : std::vector<double>{0.0, 0.3, 0.6};
  if (pin_cross >= 0) {
    cross_axis = {pin_cross};
  }
  const Budget budget = small ? Budget{Duration::Millis(200), Duration::Millis(800)}
                              : Budget{Duration::Millis(400), Duration::Seconds(2)};

  std::vector<Cell> cells;
  for (const size_t s : shard_axis) {
    for (const int c : client_axis) {
      for (const double x : cross_axis) {
        cells.push_back(Cell{s, c, x});
      }
    }
  }

  PrintHeader("E13: fleet 2PC sweep (shards x clients x cross-shard ratio)");
  // Deliberately no jobs=N echo: stdout must be byte-identical at any job
  // count so CI can diff two runs directly.
  std::printf("seed=%" PRIu64 " cells=%zu budget=%s\n", seed, cells.size(),
              small ? "small" : "full");

  // Every cell derives from the base seed and its own cell index, so the
  // fan-out order cannot matter; RunJobs reduces in index order.
  const std::vector<CellResult> results = rlharness::RunJobs<CellResult>(
      jobs, cells.size(), [&cells, &budget, seed](size_t i) {
        return RunCell(cells[i], budget, seed + i * 1000003ull, nullptr);
      });

  Table table;
  table.Row({"shards", "clients", "cross", "txn/s", "cross-frac", "p50",
             "p95", "aborted", "unknown"});
  rlbench::BenchJsonWriter json;
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const CellResult& r = results[i];
    table.Row({std::to_string(c.shards), std::to_string(c.clients),
               Fmt(c.cross_ratio, "%.2f"), Fmt(r.txns_per_sec, "%.0f"),
               Fmt(r.cross_frac, "%.3f"), FmtDur(r.p50), FmtDur(r.p95),
               std::to_string(r.aborted), std::to_string(r.unknown)});
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "e13.s%zu_c%d_x%.2f", c.shards,
                  c.clients, c.cross_ratio);
    json.Add(std::string(prefix) + ".txns_per_sec", r.txns_per_sec, "txn/s");
    json.Add(std::string(prefix) + ".cross_frac", r.cross_frac, "fraction");
    json.Add(std::string(prefix) + ".p50_us",
             static_cast<double>(r.p50.nanos()) / 1000.0, "us");
    json.Add(std::string(prefix) + ".p95_us",
             static_cast<double>(r.p95.nanos()) / 1000.0, "us");
  }
  table.Print();
  std::printf("sweep hash %016" PRIx64 "\n", SweepHash(results));

  if (!json_path.empty() && !json.WriteFile(json_path)) {
    return 1;
  }
  if (!trace_out.empty()) {
    // Dedicated traced re-run of one cell, outside the sweep, so the sweep's
    // numbers and hash stay independent of tracing. Prefer a cell that
    // actually runs cross-shard transactions: the causal trees of local
    // commits have no prepare/decision edges to break down.
    size_t traced = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].cross_ratio > 0) {
        traced = i;
        break;
      }
    }
    rlobs::SpanTracer tracer;
    RunCell(cells[traced], budget, seed + traced * 1000003ull, &tracer);
    if (!rlobs::WriteChromeTrace(tracer, trace_out)) {
      return 1;
    }
    std::printf("wrote %s (%zu trace events)\n", trace_out.c_str(),
                tracer.records().size());

    const rlobs::CriticalPathReport cp =
        rlobs::AnalyzeCriticalPaths(rlobs::CollectSpans(tracer));
    std::fputs(rlobs::FormatCriticalPath(cp).c_str(), stdout);
    if (!critical_path_json.empty()) {
      std::ofstream out(critical_path_json);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", critical_path_json.c_str());
        return 1;
      }
      out << rlobs::CriticalPathJson(cp);
      std::printf("wrote %s\n", critical_path_json.c_str());
    }
  }
  return 0;
}
