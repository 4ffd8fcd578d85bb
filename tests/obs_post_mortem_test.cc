// Post-mortem dumps over a bounded SpanTracer: the last N records, and the
// causal chain of one operation among them.
#include "src/obs/post_mortem.h"

#include <gtest/gtest.h>

#include <string>

#include "src/obs/span_tracer.h"

namespace rlobs {
namespace {

using rlsim::Duration;
using rlsim::TimePoint;

TEST(PostMortemTest, KeepsEverythingBelowTheBound) {
  SpanTracer tracer(8);
  tracer.OnTraceEvent(TimePoint::Origin() + Duration::Micros(1), "disk",
                      "destage", 1);
  tracer.OnSpanBegin(TimePoint::Origin() + Duration::Micros(2), "wal",
                     "commit-wait", 1, 0, 10);
  tracer.OnSpanEnd(TimePoint::Origin() + Duration::Micros(3), "wal",
                   "commit-wait", 1, 11);
  EXPECT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.total_records(), 3u);

  const std::string dump = DumpRecords(tracer, 8);
  EXPECT_NE(dump.find("last 3 of 3 events"), std::string::npos);
  EXPECT_NE(dump.find("disk/destage"), std::string::npos);
  EXPECT_NE(dump.find("wal/commit-wait"), std::string::npos);
  // Begin and end markers with the span id.
  EXPECT_NE(dump.find(" B "), std::string::npos);
  EXPECT_NE(dump.find(" E "), std::string::npos);
  EXPECT_NE(dump.find("span=1"), std::string::npos);
}

TEST(PostMortemTest, BoundDropsTheOldest) {
  SpanTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.OnTraceEvent(TimePoint::Origin() + Duration::Micros(i), "a",
                        "ev" + std::to_string(i), 0);
  }
  EXPECT_EQ(tracer.total_records(), 10u);
  // The ninth record found 2x the bound held and dropped ev0..ev3; the rest
  // stay contiguous in emission order.
  ASSERT_EQ(tracer.records().size(), 6u);
  EXPECT_EQ(tracer.name(tracer.records().front().kind), "ev4");
  EXPECT_EQ(tracer.name(tracer.records().back().kind), "ev9");

  const std::string dump = DumpRecords(tracer, 4);
  EXPECT_NE(dump.find("last 4 of 10 events"), std::string::npos);
  EXPECT_EQ(dump.find("a/ev5"), std::string::npos);  // older than the window
  EXPECT_NE(dump.find("a/ev6"), std::string::npos);  // oldest shown
  EXPECT_NE(dump.find("a/ev9"), std::string::npos);  // newest
  // Oldest-to-newest order.
  EXPECT_LT(dump.find("a/ev6"), dump.find("a/ev9"));
}

TEST(PostMortemTest, LongNamesAreShownWhole) {
  SpanTracer tracer(2);
  const std::string long_actor(64, 'x');
  tracer.OnTraceEvent(TimePoint::Origin(), long_actor, "k", 0);
  EXPECT_NE(DumpRecords(tracer, 2).find(long_actor + "/k"), std::string::npos);
}

TEST(PostMortemTest, EmptyTracerDumpsNoEvents) {
  SpanTracer tracer(4);
  EXPECT_TRUE(tracer.records().empty());
  EXPECT_EQ(tracer.total_records(), 0u);
  EXPECT_NE(DumpRecords(tracer, 4).find("last 0 of 0 events"),
            std::string::npos);
}

TEST(PostMortemTest, DumpsOnlyRecordsSinceTheMark) {
  SpanTracer tracer;
  tracer.OnTraceEvent(TimePoint::Origin(), "earlier", "run", 0);
  const uint64_t since = tracer.total_records();
  tracer.OnTraceEvent(TimePoint::Origin(), "this", "run", 0);
  const std::string dump = DumpRecords(tracer, 8, since);
  EXPECT_NE(dump.find("last 1 of 1 events"), std::string::npos);
  EXPECT_EQ(dump.find("earlier/run"), std::string::npos);
  EXPECT_NE(dump.find("this/run"), std::string::npos);
}

TEST(PostMortemTest, CausalChainFollowsParentLinksAndFiltersByArg) {
  SpanTracer tracer(32);
  const TimePoint t0 = TimePoint::Origin();
  // Tree for gid 77: coordinator root -> shard child (the child carries the
  // gid; the root is pulled in via the parent link). Span 9 is unrelated.
  tracer.OnSpanBegin(t0 + Duration::Micros(1), "coord", "2pc-execute", 1, 0,
                     77);
  tracer.OnSpanBegin(t0 + Duration::Micros(2), "shard-0", "shard-prepare", 2,
                     1, 77);
  tracer.OnSpanBegin(t0 + Duration::Micros(3), "other", "io-write", 9, 0, 5);
  tracer.OnSpanEnd(t0 + Duration::Micros(4), "shard-0", "shard-prepare", 2,
                   77);
  tracer.OnSpanEnd(t0 + Duration::Micros(5), "other", "io-write", 9, 0);
  tracer.OnSpanEnd(t0 + Duration::Micros(6), "coord", "2pc-execute", 1, 77);

  const std::string chain = DumpCausalChain(tracer, 77, 32);
  EXPECT_NE(chain.find("coord/2pc-execute"), std::string::npos);
  EXPECT_NE(chain.find("shard-0/shard-prepare"), std::string::npos);
  EXPECT_EQ(chain.find("other/io-write"), std::string::npos);
  // Span events only, begin before end, per-tree.
  EXPECT_LT(chain.find("coord/2pc-execute"),
            chain.find("shard-0/shard-prepare"));

  EXPECT_EQ(DumpCausalChain(tracer, 999, 32), "");
}

TEST(PostMortemTest, SiblingsShareATreeWhenTheirParentFellOut) {
  SpanTracer tracer;
  const TimePoint t0 = TimePoint::Origin();
  tracer.OnSpanBegin(t0, "coord", "2pc-execute", 1, 0, 77);
  tracer.OnSpanBegin(t0 + Duration::Micros(1), "shard-0", "shard-prepare", 2,
                     1, 77);
  tracer.OnSpanBegin(t0 + Duration::Micros(2), "shard-1", "shard-prepare", 3,
                     1, 0);
  tracer.OnSpanEnd(t0 + Duration::Micros(3), "coord", "2pc-execute", 1, 77);
  // The window (newest 3 records) no longer holds span 1's begin: span 3 is
  // still in span 2's tree, and so is span 1's end.
  const std::string chain = DumpCausalChain(tracer, 77, 3);
  EXPECT_NE(chain.find("(1 tree in ring)"), std::string::npos);
  EXPECT_NE(chain.find("shard-1/shard-prepare"), std::string::npos);
  EXPECT_NE(chain.find("E  coord/2pc-execute"), std::string::npos);
  EXPECT_EQ(chain.find("B  coord/2pc-execute"), std::string::npos);
}

}  // namespace
}  // namespace rlobs
