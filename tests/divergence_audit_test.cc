// DivergenceAuditor tests: same-seed double-runs of the real scenarios are
// bit-identical, and a deliberately planted source of nondeterminism is
// caught with the right first-divergence event.
#include "src/harness/divergence_auditor.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <unordered_set>
#include <vector>

#include "src/faults/chaos/chaos_explorer.h"
#include "src/faults/chaos/schedule.h"
#include "src/obs/span_tracer.h"
#include "src/sim/crc32.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "tests/testlib/campaign_util.h"

namespace {

using rlharness::DivergenceAuditor;
using rlharness::DivergenceReport;
using rlharness::EpochDigest;
using rlharness::FoldEpochs;
using rlobs::SpanTracer;
using rlsim::Duration;
using rlsim::Simulator;
using rlsim::Task;
using rlsim::TimePoint;

// --- Compare mechanics on hand-built streams ------------------------------

struct Ev {
  int64_t us;
  const char* kind;
  uint32_t crc;
};

// A recorded run holding exactly these instants, in order.
SpanTracer Recorded(std::initializer_list<Ev> events) {
  SpanTracer run;
  for (const Ev& e : events) {
    run.OnTraceEvent(TimePoint::Origin() + Duration::Micros(e.us), "test",
                      e.kind, e.crc);
  }
  return run;
}

TEST(DivergenceCompare, IdenticalStreams) {
  const auto a = Recorded({{10, "x", 1}, {250, "y", 2}});
  const DivergenceAuditor auditor;
  const DivergenceReport report = auditor.Compare(a, a);
  EXPECT_TRUE(report.identical);
  EXPECT_EQ(report.events_a, 2u);
}

TEST(DivergenceCompare, PinpointsFirstDifferingEvent) {
  const auto a = Recorded({{10, "x", 1}, {250, "y", 2}, {260, "z", 3}});
  // Same time/actor/kind as a's second event, different payload.
  const auto b = Recorded({{10, "x", 1}, {250, "y", 99}, {260, "z", 3}});
  const DivergenceReport report = DivergenceAuditor().Compare(a, b);
  EXPECT_FALSE(report.identical);
  EXPECT_EQ(report.first_diverging_event, 1u);
  // 250us with the default 100ms epoch -> epoch 0; use a 100us epoch to
  // check the epoch arithmetic too.
  const DivergenceReport fine = DivergenceAuditor(100'000).Compare(a, b);
  EXPECT_EQ(fine.first_bad_epoch, 2);
}

TEST(DivergenceCompare, TruncatedStreamDivergesAtEndOfShorterRun) {
  const auto a = Recorded({{10, "x", 1}, {20, "y", 2}});
  const auto b = Recorded({{10, "x", 1}});
  const DivergenceReport report = DivergenceAuditor().Compare(a, b);
  EXPECT_FALSE(report.identical);
  EXPECT_EQ(report.first_diverging_event, 1u);
  EXPECT_EQ(report.event_b, "<end of stream>");
}

TEST(DivergenceCompare, FoldEpochsPartitionsByVirtualTime) {
  const auto events = Recorded({{10, "a", 1}, {90'000, "b", 2}, {150'000, "c", 3}});
  const std::vector<EpochDigest> epochs = FoldEpochs(events, 100'000'000);
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].epoch_index, 0);
  EXPECT_EQ(epochs[0].events, 2u);
  EXPECT_EQ(epochs[1].epoch_index, 1);
  EXPECT_EQ(epochs[1].events, 1u);
}

// --- The real scenarios are reproducible ----------------------------------

TEST(DivergenceAudit, SeededCampaignSameSeedSameDigests) {
  SpanTracer first;
  SpanTracer second;
  rltest::RunSeededCampaign(11, &first);
  rltest::RunSeededCampaign(11, &second);
  const DivergenceReport report = DivergenceAuditor().Compare(first, second);
  // The campaign cuts power mid-write-burst: it must produce real trace
  // traffic, or this test would vacuously pass on empty streams.
  ASSERT_GT(report.events_a, 10u);
  EXPECT_TRUE(report.identical) << report.Summary();
}

TEST(DivergenceAudit, DifferentSeedsActuallyDiverge) {
  // Sanity check on the instrument itself: the auditor is only trustworthy
  // if it CAN see a difference when the runs genuinely differ.
  SpanTracer first;
  SpanTracer second;
  rltest::RunSeededCampaign(11, &first);
  rltest::RunSeededCampaign(12, &second);
  const DivergenceReport report = DivergenceAuditor().Compare(first, second);
  EXPECT_FALSE(report.identical);
}

rlchaos::EpisodeConfig FindEpisode(bool replicated) {
  const rlchaos::GeneratorOptions gen;
  for (uint64_t seed = 1; seed < 256; ++seed) {
    const rlchaos::EpisodeConfig cfg = rlchaos::GenerateEpisode(seed, gen);
    if ((cfg.replicas > 0) == replicated && !cfg.events.empty()) {
      return cfg;
    }
  }
  ADD_FAILURE() << "no " << (replicated ? "replicated" : "single-node")
                << " episode in seeds 1..255";
  return rlchaos::GenerateEpisode(1, gen);
}

TEST(DivergenceAudit, PlainChaosEpisodeSameSeedSameDigests) {
  const DivergenceReport report =
      rlchaos::AuditEpisodeDivergence(FindEpisode(/*replicated=*/false));
  EXPECT_TRUE(report.identical) << report.Summary();
  EXPECT_GT(report.events_a, 0u);
}

TEST(DivergenceAudit, ReplicatedChaosEpisodeSameSeedSameDigests) {
  const DivergenceReport report =
      rlchaos::AuditEpisodeDivergence(FindEpisode(/*replicated=*/true));
  EXPECT_TRUE(report.identical) << report.Summary();
  EXPECT_GT(report.events_a, 0u);
}

// --- Planted nondeterminism is caught -------------------------------------

// Keeps every node from every run alive, so a later run's allocations are
// guaranteed to land at addresses different from (all still-live) earlier
// runs' nodes. This is the test-only stand-in for the classic bug: pointer
// values from a hash container leaking into the event stream.
std::vector<std::unique_ptr<uint64_t>>& KeepAlive() {
  static std::vector<std::unique_ptr<uint64_t>> nodes;
  return nodes;
}

// A tiny scenario with a planted defect: the second trace event folds
// unordered_set-of-pointer contents (iteration order AND pointer bits are
// run-dependent) into its payload CRC. Events one and three are clean.
void PlantedScenario(SpanTracer& tracer) {
  Simulator sim(7);
  sim.set_tracer(&tracer);
  sim.Spawn([](Simulator& s) -> Task<void> {
    co_await s.Sleep(Duration::Millis(1));
    s.EmitTrace("planted", "clean-step", 1234);

    std::unordered_set<const uint64_t*> keys;
    for (uint64_t i = 0; i < 8; ++i) {
      KeepAlive().push_back(std::make_unique<uint64_t>(i));
      keys.insert(KeepAlive().back().get());
    }
    uint32_t crc = 0;
    for (const uint64_t* p : keys) {
      crc = rlsim::Crc32c(
          {reinterpret_cast<const uint8_t*>(&p), sizeof(p)}, crc);
    }
    co_await s.Sleep(Duration::Millis(1));
    s.EmitTrace("planted", "unordered-leak", crc);

    co_await s.Sleep(Duration::Millis(1));
    s.EmitTrace("planted", "after", 5678);
  }(sim));
  sim.Run();
}

TEST(DivergenceAudit, PlantedUnorderedLeakIsCaughtAtTheRightEvent) {
  const DivergenceReport report = DivergenceAuditor().RunTwice(PlantedScenario);
  ASSERT_FALSE(report.identical)
      << "planted pointer-dependent payload was not detected";
  // Event 0 is clean in both runs; the leak is event 1, and the report must
  // say so (not merely "the streams differ somewhere").
  EXPECT_EQ(report.first_diverging_event, 1u);
  EXPECT_NE(report.event_a.find("unordered-leak"), std::string::npos)
      << report.Summary();
  EXPECT_EQ(report.events_a, 3u);
  EXPECT_EQ(report.events_b, 3u);
}

}  // namespace
