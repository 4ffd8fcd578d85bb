// Chaos explorer: schedule format round-trip, episode determinism, a small
// bounded corpus that must hold every oracle, and the planted-violation
// pipeline (power-guard ablation found, shrunk to a minimal schedule, and
// replayed bit-for-bit).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"
#include "src/obs/span_tracer.h"

namespace rlchaos {
namespace {

TEST(ChaosScheduleTest, SerializeParseRoundTrip) {
  GeneratorOptions gen;
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const EpisodeConfig cfg = GenerateEpisode(seed, gen);
    EpisodeConfig back;
    std::string error;
    ASSERT_TRUE(Parse(Serialize(cfg), &back, &error)) << error;
    EXPECT_EQ(cfg, back) << "seed " << seed;
  }
}

TEST(ChaosScheduleTest, ParseRejectsMalformedInput) {
  EpisodeConfig cfg;
  std::string error;
  EXPECT_FALSE(Parse("", &cfg, &error));
  EXPECT_FALSE(Parse("not-a-schedule v1\nend\n", &cfg, &error));
  EXPECT_FALSE(Parse("rapilog-chaos-schedule v1\nseed 1\n", &cfg, &error))
      << "missing end marker must be rejected";
  EXPECT_FALSE(Parse(
      "rapilog-chaos-schedule v1\nevent 10 warp-core-breach 0\nend\n", &cfg,
      &error));
  EXPECT_FALSE(
      Parse("rapilog-chaos-schedule v1\nflux-capacitance 88\nend\n", &cfg,
            &error));
}

TEST(ChaosScheduleTest, GenerationIsDeterministic) {
  GeneratorOptions gen;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    EXPECT_EQ(GenerateEpisode(seed, gen), GenerateEpisode(seed, gen));
  }
}

TEST(ChaosEpisodeTest, SameConfigSameOutcomeHash) {
  // A replicated multi-fault episode — the widest code path — must be a
  // pure function of its config.
  GeneratorOptions gen;
  EpisodeConfig cfg;
  for (uint64_t seed = 1;; ++seed) {
    cfg = GenerateEpisode(seed, gen);
    if (cfg.replicas > 0 && cfg.events.size() >= 4) {
      break;
    }
    ASSERT_LT(seed, 200u) << "generator never produced a replicated episode";
  }
  const EpisodeOutcome a = RunEpisode(cfg);
  const EpisodeOutcome b = RunEpisode(cfg);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(ChaosExplorerTest, BoundedCorpusHoldsEveryOracle) {
  // The PR-gate corpus: a handful of randomized multi-fault episodes across
  // deployment modes, disk setups, and replication topologies. Every oracle
  // must hold; a violation here is a real durability bug (or a regression
  // in the harness's fault semantics) and the report names the seed.
  ExplorerOptions opts;
  opts.base_seed = 1;
  opts.episodes = 6;
  const ExplorerReport report = ChaosExplorer(opts).RunCampaign();
  EXPECT_EQ(report.episodes_run, 6u);
  EXPECT_TRUE(report.ok()) << report.violations << " violating episodes; "
                           << "first failing seed "
                           << (report.failures.empty()
                                   ? 0
                                   : report.failures[0].original.seed);
  EXPECT_NE(report.corpus_hash, 0u);
}

TEST(ChaosExplorerTest, AblationFoundShrunkAndReplayable) {
  // Plant the known violation: RapiLog with the power guard disabled loses
  // the acked commits still buffered at a cut (the episode's closing
  // plug-pull is one). The explorer must find it, shrink it to at most 3
  // fault events, and the minimal schedule must replay bit-for-bit.
  ExplorerOptions opts;
  opts.base_seed = 16;  // first guard-off failure in the nightly seed walk
  opts.episodes = 1;
  opts.gen.power_guard = false;
  const ExplorerReport report = ChaosExplorer(opts).RunCampaign();
  ASSERT_EQ(report.failures.size(), 1u)
      << "the planted guard-off violation was not found";
  const ShrunkFailure& f = report.failures[0];
  EXPECT_FALSE(f.shrunk.outcome.ok());
  EXPECT_LE(f.shrunk.minimal.events.size(), 3u)
      << Serialize(f.shrunk.minimal);
  EXPECT_GT(f.shrunk.outcome.lost_writes, 0u);

  // Replay: serialize, parse back, re-run — identical outcome hash.
  EpisodeConfig replayed;
  std::string error;
  ASSERT_TRUE(Parse(Serialize(f.shrunk.minimal), &replayed, &error)) << error;
  const EpisodeOutcome again = RunEpisode(replayed);
  EXPECT_EQ(again.Hash(), f.shrunk.outcome.Hash());
  EXPECT_EQ(again.violations, f.shrunk.outcome.violations);

  // Post-mortem: the last 512 trace records before the oracle fired, one
  // line each under a header, and the same text when the caller records the
  // episode into a tracer of their own.
  const std::string& dump = f.shrunk.outcome.flight_dump;
  EXPECT_EQ(dump.rfind("flight recorder: last 512 of ", 0), 0u)
      << dump.substr(0, dump.find('\n'));
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 1 + 512);
  rlobs::SpanTracer tracer;
  RunOptions traced;
  traced.sink = &tracer;
  EXPECT_EQ(RunEpisode(f.shrunk.minimal, traced).flight_dump, dump);

  // And the same schedule with the guard re-enabled is clean: the violation
  // is the ablation's, not the harness's.
  EpisodeConfig guarded = f.shrunk.minimal;
  guarded.power_guard = true;
  EXPECT_TRUE(RunEpisode(guarded).ok());
}

}  // namespace
}  // namespace rlchaos
