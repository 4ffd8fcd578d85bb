// E12 driver: the chaos explorer as a command-line tool.
//
//   rapilog_chaos --seed S              one episode from seed S
//   rapilog_chaos --seed S --episodes N corpus of N episodes (seeds S..S+N-1)
//   rapilog_chaos --replay FILE         re-execute a recorded schedule
//   rapilog_chaos --ablate-powerguard   plant the known violation (guard off)
//   rapilog_chaos --fleet N             E13 fleet episodes: N shards behind a
//                                       2PC coordinator, fleet fault motifs,
//                                       the atomicity oracle after wind-down
//   rapilog_chaos --cross-ratio X       pin the fleet cross-shard probability
//                                       (default: sampled per seed)
//   rapilog_chaos --budget N            nightly sweep: N episodes in batches
//   rapilog_chaos --audit               run every episode twice under the
//                                       DivergenceAuditor; any divergence is
//                                       a failure with a first-event report
//   rapilog_chaos --trace               print applied events/recoveries with
//                                       virtual timestamps (stderr)
//   rapilog_chaos --trace-out FILE      record one episode (the base seed,
//                                       or the --replay schedule) with the
//                                       span tracer and write Chrome
//                                       trace-event JSON loadable in Perfetto
//   rapilog_chaos --jobs N              fan episodes (and audit pairs) across
//                                       N worker threads; 0 = all cores.
//                                       Output is byte-identical to --jobs 1
//   rapilog_chaos --out DIR             write shrunken failing schedules and
//                                       divergence reports there
//   rapilog_chaos --no-shrink           report failures without minimising
//
// Every mode is a pure function of its arguments: a sweep is bounded by an
// episode budget, never by a wall-clock deadline (which would make "how many
// seeds ran" depend on the machine).
//
// Exit status: 0 if every episode's oracles held (and, under --audit, every
// double-run agreed), 1 otherwise. Failing schedules are shrunk to minimal
// replayable files (see DESIGN.md).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"
#include "src/harness/parallel_runner.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/span_tracer.h"

namespace {

using rlchaos::ChaosExplorer;
using rlchaos::EpisodeConfig;
using rlchaos::EpisodeOutcome;
using rlchaos::ExplorerOptions;
using rlchaos::ExplorerReport;
using rlchaos::ShrunkFailure;

// Seeds per ExplorerReport batch in budget mode (progress granularity only).
constexpr uint64_t kBatchEpisodes = 10;

void PrintEpisode(const EpisodeConfig& cfg, const EpisodeOutcome& out) {
  std::printf("episode seed=%llu mode=%s disks=%s replicas=%zu events=%zu",
              static_cast<unsigned long long>(cfg.seed),
              rlharness::ToString(cfg.mode).c_str(),
              rlharness::ToString(cfg.disks).c_str(), cfg.replicas,
              cfg.events.size());
  if (cfg.fleet_shards > 0) {
    std::printf(" fleet-shards=%zu cross-ratio=%.4f", cfg.fleet_shards,
                cfg.cross_ratio);
  }
  std::printf("\n");
  std::printf("  %s\n", out.Summary().c_str());
  for (const std::string& v : out.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
  if (!out.flight_dump.empty()) {
    std::printf("  %s", out.flight_dump.c_str());
  }
  if (!out.causal_chain.empty()) {
    std::printf("  %s", out.causal_chain.c_str());
  }
}

// Dedicated traced re-execution: records the episode with the span tracer
// and writes Chrome trace-event JSON. Kept separate from the campaign run so
// campaigns never record (and never double-print) — the episode is a pure
// function of its config, so this re-run reproduces it exactly.
bool WriteEpisodeTrace(const EpisodeConfig& cfg, const std::string& path) {
  rlobs::SpanTracer tracer;
  rlchaos::RunOptions traced;
  traced.sink = &tracer;
  rlchaos::RunEpisode(cfg, traced);
  if (!rlobs::WriteChromeTrace(tracer, path)) {
    return false;
  }
  std::printf("  wrote %s (%zu trace events)\n", path.c_str(),
              tracer.records().size());
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << contents;
  std::printf("  wrote %s\n", path.c_str());
  return true;
}

bool WriteScheduleFile(const std::string& dir, const EpisodeConfig& cfg,
                       const char* tag) {
  std::ostringstream path;
  path << dir << "/chaos-" << tag << "-seed" << cfg.seed << ".schedule";
  return WriteTextFile(path.str(), rlchaos::Serialize(cfg));
}

int ReportAndPersist(const ExplorerReport& report, const std::string& out_dir) {
  std::printf("\nchaos: %llu episodes, %llu violations, corpus hash %016llx\n",
              static_cast<unsigned long long>(report.episodes_run),
              static_cast<unsigned long long>(report.violations),
              static_cast<unsigned long long>(report.corpus_hash));
  for (const ShrunkFailure& f : report.failures) {
    std::printf(
        "failing seed %llu: %zu events shrunk to %zu (%d replays)\n",
        static_cast<unsigned long long>(f.original.seed),
        f.original.events.size(), f.shrunk.minimal.events.size(),
        f.shrunk.replays_used);
    std::printf("  minimal schedule:\n%s",
                rlchaos::Serialize(f.shrunk.minimal).c_str());
    PrintEpisode(f.shrunk.minimal, f.shrunk.outcome);
    if (!out_dir.empty()) {
      WriteScheduleFile(out_dir, f.original, "original");
      WriteScheduleFile(out_dir, f.shrunk.minimal, "minimal");
      // Post-mortem artifacts: the flight-recorder dump captured when the
      // shrunk episode's oracle fired, and a Perfetto trace of the minimal
      // reproducer.
      std::ostringstream flight_path;
      flight_path << out_dir << "/chaos-flightrec-seed" << f.original.seed
                  << ".txt";
      WriteTextFile(flight_path.str(), f.shrunk.outcome.flight_dump);
      if (!f.shrunk.outcome.causal_chain.empty()) {
        // The causal span chains of the convicted transactions (fleet
        // episodes): which client/coordinator/shard spans they crossed.
        std::ostringstream causal_path;
        causal_path << out_dir << "/chaos-causal-seed" << f.original.seed
                    << ".txt";
        WriteTextFile(causal_path.str(), f.shrunk.outcome.causal_chain);
      }
      std::ostringstream trace_path;
      trace_path << out_dir << "/chaos-trace-seed" << f.original.seed
                 << ".json";
      WriteEpisodeTrace(f.shrunk.minimal, trace_path.str());
    }
  }
  return report.ok() ? 0 : 1;
}

// Runs the divergence audit over seeds [base, base+episodes). Returns the
// number of diverging episodes; the first report per diverging seed is
// printed and (with --out) persisted for the nightly artifact upload.
// The run pairs fan across `jobs` worker threads (each audit runs the
// episode twice from the same seed); reports are reduced and printed in
// seed order, so the output is identical at any job count.
uint64_t AuditSeeds(uint64_t base, uint64_t episodes,
                    const rlchaos::GeneratorOptions& gen,
                    const std::string& out_dir, int jobs) {
  const size_t n = static_cast<size_t>(episodes);
  // With a single seed the only available parallelism is the pair itself.
  const int pair_jobs = n == 1 ? jobs : 1;
  const std::vector<rlharness::DivergenceReport> reports =
      rlharness::RunJobs<rlharness::DivergenceReport>(
          jobs, n, [base, &gen, pair_jobs](size_t i) {
            return rlchaos::AuditEpisodeDivergence(
                rlchaos::GenerateEpisode(base + i, gen), pair_jobs);
          });
  uint64_t diverged = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t seed = base + i;
    const rlharness::DivergenceReport& report = reports[i];
    if (report.identical) {
      continue;
    }
    const EpisodeConfig cfg = rlchaos::GenerateEpisode(seed, gen);
    ++diverged;
    std::printf("audit seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                report.Summary().c_str());
    if (!out_dir.empty()) {
      std::ostringstream path;
      path << out_dir << "/divergence-seed" << seed << ".txt";
      WriteTextFile(path.str(), report.Summary() + "\n\nschedule:\n" +
                                    rlchaos::Serialize(cfg));
    }
  }
  return diverged;
}

int RunReplay(const std::string& path, const rlchaos::RunOptions& run,
              const std::string& trace_out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  EpisodeConfig cfg;
  std::string error;
  if (!rlchaos::Parse(buf.str(), &cfg, &error)) {
    std::fprintf(stderr, "bad schedule file %s: %s\n", path.c_str(),
                 error.c_str());
    return 2;
  }
  const EpisodeOutcome out = rlchaos::RunEpisode(cfg, run);
  PrintEpisode(cfg, out);
  if (!trace_out.empty() && !WriteEpisodeTrace(cfg, trace_out)) {
    return 2;
  }
  return out.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  uint64_t episodes = 1;
  uint64_t budget = 0;  // 0 = not in budget (sweep) mode
  int jobs = 1;
  bool no_shrink = false;
  bool audit = false;
  bool ablate_powerguard = false;
  uint64_t fleet_shards = 0;
  double cross_ratio = -1.0;
  rlchaos::RunOptions run;
  std::string replay_path;
  std::string out_dir;
  std::string trace_out;
  rlbench::ParseFlags(
      argc, argv, "rapilog_chaos",
      {rlbench::Uint("--seed", &seed), rlbench::Uint("--episodes", &episodes),
       rlbench::Uint("--budget", &budget), rlbench::Jobs("--jobs", &jobs),
       rlbench::Uint("--fleet", &fleet_shards),
       rlbench::Fraction("--cross-ratio", &cross_ratio),
       rlbench::Path("--replay", &replay_path),
       rlbench::Path("--out", &out_dir, "DIR"),
       rlbench::Path("--trace-out", &trace_out),
       rlbench::Switch("--no-shrink", &no_shrink),
       rlbench::Switch("--trace", &run.trace),
       rlbench::Switch("--audit", &audit),
       rlbench::Switch("--ablate-powerguard", &ablate_powerguard)});

  if (!replay_path.empty()) {
    return RunReplay(replay_path, run, trace_out);
  }

  ExplorerOptions opts;
  opts.base_seed = seed;
  opts.episodes = episodes;
  opts.shrink = !no_shrink;
  opts.run = run;
  opts.jobs = jobs;
  opts.gen.fleet_shards = fleet_shards;
  opts.gen.cross_ratio = cross_ratio;
  // The ablation: RapiLog without its power guard. A buffered-ack device
  // whose emergency flush never runs loses acked commits on a plug-pull —
  // the explorer must find it and shrink it to (at most) a few events.
  opts.gen.power_guard = !ablate_powerguard;

  if (budget > 0) {
    // Nightly mode: a fixed episode budget consumed in batches. Same seed
    // and budget, same seeds explored, same output — the sweep is as
    // deterministic as a single episode.
    ExplorerReport total;
    uint64_t next_seed = seed;
    uint64_t remaining = budget;
    while (remaining > 0) {
      ExplorerOptions batch = opts;
      batch.base_seed = next_seed;
      batch.episodes = remaining < kBatchEpisodes ? remaining : kBatchEpisodes;
      const ExplorerReport r = ChaosExplorer(batch).RunCampaign();
      total.episodes_run += r.episodes_run;
      total.violations += r.violations;
      for (const ShrunkFailure& f : r.failures) {
        total.failures.push_back(f);
      }
      total.corpus_hash ^= r.corpus_hash;
      next_seed += batch.episodes;
      remaining -= batch.episodes;
    }
    uint64_t diverged = 0;
    if (audit) {
      diverged = AuditSeeds(seed, budget, opts.gen, out_dir, jobs);
      std::printf("audit: %llu/%llu episodes diverged\n",
                  static_cast<unsigned long long>(diverged),
                  static_cast<unsigned long long>(budget));
    }
    const int status = ReportAndPersist(total, out_dir);
    return diverged > 0 ? 1 : status;
  }

  const ExplorerReport report = ChaosExplorer(opts).RunCampaign();
  if (report.failures.empty() && episodes == 1) {
    // Single-episode runs print their outcome even when clean, so CI can
    // assert determinism by comparing two runs' hashes.
    const EpisodeConfig cfg = rlchaos::GenerateEpisode(seed, opts.gen);
    PrintEpisode(cfg, rlchaos::RunEpisode(cfg, run));
  }
  if (!trace_out.empty()) {
    // Record the base seed's episode in a dedicated traced run, outside the
    // campaign, so corpus hashes stay independent of tracing.
    WriteEpisodeTrace(rlchaos::GenerateEpisode(seed, opts.gen), trace_out);
  }
  uint64_t diverged = 0;
  if (audit) {
    diverged = AuditSeeds(seed, episodes, opts.gen, out_dir, jobs);
    std::printf("audit: %llu/%llu episodes diverged\n",
                static_cast<unsigned long long>(diverged),
                static_cast<unsigned long long>(episodes));
  }
  const int status = ReportAndPersist(report, out_dir);
  return diverged > 0 ? 1 : status;
}
