// Chaos regression corpus: shrunk schedules of defects the explorer found,
// replayed on every build, and golden corpus hashes that pin the behaviour
// of a small classic and a small fleet corpus.
//
// A change that moves a golden hash changes what some episode does or what
// the oracles conclude about it. That may be intended (an engine or oracle
// fix); then the new hash goes into this file in the same diff, with the
// reason stated in the commit.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"

namespace rlchaos {
namespace {

EpisodeConfig LoadSchedule(const std::string& name) {
  const std::string path = std::string(CHAOS_SCHEDULE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::stringstream text;
  text << in.rdbuf();
  EpisodeConfig cfg;
  std::string error;
  EXPECT_TRUE(Parse(text.str(), &cfg, &error)) << path << ": " << error;
  return cfg;
}

class RegressionScheduleTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RegressionScheduleTest, ReplaysClean) {
  const EpisodeConfig cfg = LoadSchedule(GetParam());
  ASSERT_FALSE(cfg.events.empty());
  const EpisodeOutcome out = RunEpisode(cfg);
  EXPECT_TRUE(out.ok()) << out.Summary() << "\n"
                        << (out.violations.empty() ? "" : out.violations[0]);
  EXPECT_GT(out.committed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shrunk, RegressionScheduleTest,
                         ::testing::Values("classic-seed105.schedule",
                                           "fleet2-seed107.schedule",
                                           "fleet4-seed19.schedule"));

uint64_t CorpusHash(size_t fleet_shards) {
  ExplorerOptions opts;
  opts.base_seed = 1;
  opts.episodes = 20;
  opts.gen.fleet_shards = fleet_shards;
  opts.shrink = false;
  opts.jobs = 2;
  const ExplorerReport report = ChaosExplorer(opts).RunCampaign();
  EXPECT_TRUE(report.ok()) << report.violations << " violating episodes";
  return report.corpus_hash;
}

// Same corpora as `rapilog_chaos --seed 1 --episodes 20` and
// `rapilog_chaos --fleet 2 --seed 1 --episodes 20`.
TEST(GoldenCorpusTest, ClassicSeed1x20) {
  EXPECT_EQ(CorpusHash(0), 0x84c6e036d5171892ull);
}

TEST(GoldenCorpusTest, Fleet2Seed1x20) {
  EXPECT_EQ(CorpusHash(2), 0x9f06f6c7b32f305bull);
}

}  // namespace
}  // namespace rlchaos
