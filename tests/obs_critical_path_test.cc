#include "src/obs/critical_path.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/span_tracer.h"
#include "src/sim/simulator.h"

namespace rlobs {
namespace {

using rlsim::Duration;
using rlsim::Simulator;

SpanNode Node(uint64_t id, uint64_t parent, int64_t begin, int64_t end,
              const char* kind) {
  SpanNode n;
  n.id = id;
  n.parent = parent;
  n.begin_ns = begin;
  n.end_ns = end;
  n.actor = "x";
  n.kind = kind;
  return n;
}

const CriticalEdge* EdgeOf(const CriticalPathClass& cls,
                           const std::string& kind) {
  for (const CriticalEdge& e : cls.edges) {
    if (e.kind == kind) {
      return &e;
    }
  }
  return nullptr;
}

// The 2PC shape the tentpole cares about: root spans the whole txn, the
// prepare phase (with a slow shard underneath) ends before the decision
// fanout, and the gap between them is the coordinator's decision-log fsync.
// The walk must resume at the root after spending the decision subtree so
// the prepare subtree still gets its share.
TEST(CriticalPathTest, BackwardWalkCoversSiblingsAndSumsToRootDuration) {
  const std::vector<SpanNode> spans = {
      Node(1, 0, 0, 100, "2pc-execute"),
      Node(2, 1, 10, 60, "2pc-prepare"),
      Node(3, 1, 70, 90, "2pc-decide"),
      Node(4, 2, 15, 55, "shard-prepare"),
  };
  const CriticalPathReport r = AnalyzeCriticalPaths(spans);
  ASSERT_EQ(r.classes.size(), 1u);
  const CriticalPathClass& cls = r.classes[0];
  EXPECT_EQ(cls.root_kind, "2pc-execute");
  EXPECT_EQ(cls.roots, 1u);
  EXPECT_EQ(cls.total_ns, 100);

  // Hand-computed walk: [90,100] root fanout tail, [70,90] decide, [60,70]
  // root fsync gap, [55,60] prepare tail, [15,55] shard-prepare, [10,15]
  // prepare head, [0,10] root head.
  ASSERT_EQ(cls.edges.size(), 4u);
  EXPECT_EQ(cls.edges[0].kind, "shard-prepare");
  EXPECT_EQ(cls.edges[0].total_ns, 40);
  EXPECT_EQ(cls.edges[0].count, 1u);
  EXPECT_EQ(cls.edges[1].kind, "2pc-execute");
  EXPECT_EQ(cls.edges[1].total_ns, 30);
  EXPECT_EQ(cls.edges[1].count, 3u);
  EXPECT_EQ(cls.edges[2].kind, "2pc-decide");
  EXPECT_EQ(cls.edges[2].total_ns, 20);
  EXPECT_EQ(cls.edges[3].kind, "2pc-prepare");
  EXPECT_EQ(cls.edges[3].total_ns, 10);
  EXPECT_EQ(cls.edges[3].count, 2u);

  int64_t sum = 0;
  for (const CriticalEdge& e : cls.edges) {
    sum += e.total_ns;
  }
  EXPECT_EQ(sum, cls.total_ns);
}

TEST(CriticalPathTest, ZeroDurationChildIsConsumedOnce) {
  // A zero-duration child ending exactly at the cursor must not be picked
  // twice (the walk would never terminate).
  const std::vector<SpanNode> spans = {
      Node(1, 0, 0, 10, "root"),
      Node(2, 1, 5, 5, "blip"),
  };
  const CriticalPathReport r = AnalyzeCriticalPaths(spans);
  ASSERT_EQ(r.classes.size(), 1u);
  const CriticalPathClass& cls = r.classes[0];
  EXPECT_EQ(cls.total_ns, 10);
  const CriticalEdge* root = EdgeOf(cls, "root");
  const CriticalEdge* blip = EdgeOf(cls, "blip");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(blip, nullptr);
  EXPECT_EQ(root->total_ns, 10);
  EXPECT_EQ(blip->total_ns, 0);
  EXPECT_EQ(blip->count, 1u);
}

TEST(CriticalPathTest, UnresolvableParentBecomesItsOwnRoot) {
  // Tracing enabled mid-run: the parent span was never recorded, so the
  // child is analyzed as a root of its own class.
  const std::vector<SpanNode> spans = {
      Node(7, 99, 10, 30, "shard-prepare"),
  };
  const CriticalPathReport r = AnalyzeCriticalPaths(spans);
  ASSERT_EQ(r.classes.size(), 1u);
  EXPECT_EQ(r.classes[0].root_kind, "shard-prepare");
  EXPECT_EQ(r.classes[0].roots, 1u);
  EXPECT_EQ(r.classes[0].total_ns, 20);
}

TEST(CriticalPathTest, RootsOfOneKindAggregateAcrossTrees) {
  const std::vector<SpanNode> spans = {
      Node(1, 0, 0, 50, "txn"),   Node(2, 1, 10, 40, "prepare"),
      Node(3, 0, 100, 130, "txn"), Node(4, 3, 105, 125, "prepare"),
  };
  const CriticalPathReport r = AnalyzeCriticalPaths(spans);
  ASSERT_EQ(r.classes.size(), 1u);
  const CriticalPathClass& cls = r.classes[0];
  EXPECT_EQ(cls.roots, 2u);
  EXPECT_EQ(cls.total_ns, 80);
  const CriticalEdge* prepare = EdgeOf(cls, "prepare");
  ASSERT_NE(prepare, nullptr);
  EXPECT_EQ(prepare->total_ns, 50);  // 30 + 20
  EXPECT_EQ(prepare->count, 2u);
}

TEST(CriticalPathTest, CollectSpansPairsAndClosesOpenSpans) {
  Simulator sim;
  SpanTracer tracer;
  sim.set_tracer(&tracer);
  uint64_t root_id = 0;
  sim.Schedule(Duration::Micros(1), [&] {
    root_id = sim.EmitSpanBegin("coord", "txn", 5);
    sim.EmitSpanBegin("coord", "stuck", 0, root_id);  // never ended
  });
  sim.Schedule(Duration::Micros(4), [&] {
    sim.EmitSpanEnd(root_id, "coord", "txn");
  });
  sim.Run();

  const std::vector<SpanNode> spans = CollectSpans(tracer);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, "txn");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[0].begin_ns, Duration::Micros(1).nanos());
  EXPECT_EQ(spans[0].end_ns, Duration::Micros(4).nanos());
  EXPECT_EQ(spans[1].kind, "stuck");
  EXPECT_EQ(spans[1].parent, root_id);
  // Open span closed at the last recorded timestamp (exporter convention).
  EXPECT_EQ(spans[1].end_ns, Duration::Micros(4).nanos());
}

// Roots: a child listed before its parent still climbs to it, a parent the
// input lacks makes its child a root, and a parent cycle (malformed input)
// terminates with no root instead of looping.
TEST(CriticalPathTest, ResolveRootsClimbsAnyOrderAndStopsOnCycles) {
  const std::vector<SpanNode> spans = {
      Node(4, 3, 10, 20, "child"), Node(3, 0, 0, 30, "root"),
      Node(5, 99, 0, 5, "orphan"), Node(1, 2, 0, 1, "loop"),
      Node(2, 1, 0, 1, "loop"),
  };
  EXPECT_EQ(ResolveRoots(spans),
            (std::vector<size_t>{1, 1, 2, SIZE_MAX, SIZE_MAX}));
  const CriticalPathReport r = AnalyzeCriticalPaths(spans);
  ASSERT_EQ(r.classes.size(), 2u);
  EXPECT_EQ(r.classes[0].root_kind, "orphan");
  EXPECT_EQ(r.classes[1].root_kind, "root");
}

TEST(CriticalPathTest, FormatAndJsonAreStableShapes) {
  const std::vector<SpanNode> spans = {
      Node(1, 0, 0, 1000, "txn"),
      Node(2, 1, 200, 800, "prepare"),
  };
  const CriticalPathReport r = AnalyzeCriticalPaths(spans);
  const std::string text = FormatCriticalPath(r);
  EXPECT_NE(text.find("critical path: txn (1 root, total "),
            std::string::npos);
  EXPECT_NE(text.find("prepare"), std::string::npos);
  const std::string json = CriticalPathJson(r);
  EXPECT_NE(json.find("{\"critical_path\":[{\"class\":\"txn\",\"roots\":1,"
                      "\"total_ns\":1000,"),
            std::string::npos);
  EXPECT_NE(json.find("{\"kind\":\"prepare\",\"count\":1,\"total_ns\":600,"),
            std::string::npos);
  EXPECT_NE(json.find("\"share\":0.6000"), std::string::npos);

  EXPECT_EQ(FormatCriticalPath(AnalyzeCriticalPaths({})),
            "critical path: no spans recorded\n");
}

}  // namespace
}  // namespace rlobs
