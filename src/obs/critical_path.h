// Critical-path analysis over assembled causal span trees.
//
// Once trace contexts stitch coordinator, shard and replica spans into one
// tree per transaction (see trace_context.h), the interesting question is
// where the *client-visible* latency of each transaction class actually
// went: the longest causally-ordered chain from the root's begin to its end
// — client → coordinator → slowest prepare → decision-log write → decision
// fanout → ack. This module computes that chain per root and aggregates the
// per-edge time by root kind ("transaction class").
//
// Algorithm: for each root, walk backwards from the root's end. At each
// node, pick the child that finished last at or before the cursor; the gap
// between that child's end and the cursor is the node's own critical time
// (its "self" segment — e.g. the coordinator's own work between the
// slowest vote and the decision fanout), then descend into the child
// with the cursor moved to the child's end. A node with no remaining child
// before the cursor contributes its [begin, cursor] stretch and the walk
// resumes at its parent — so after the decision fanout is spent, the
// slowest prepare still gets its share. Segments sum exactly to the root's
// duration, ties break on span id, and inputs come from a deterministic
// tracer — so the breakdown is byte-identical run to run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/span_tracer.h"

namespace rlobs {

// One closed span lifted out of a SpanTracer record stream.
struct SpanNode {
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  std::string actor;
  std::string kind;
};

// Pairs begin/end records among the tracer's newest `last_n` records (all of
// them by default) into SpanNodes, one per begin, in begin order; spans still
// open at the end of the window are closed at its last timestamp (same
// convention as the Chrome exporter). Instants are ignored.
std::vector<SpanNode> CollectSpans(const SpanTracer& tracer,
                                   size_t last_n = SIZE_MAX);

// Index of each span's root: the topmost span reached by following parent
// links through `spans`. A span whose parent is 0 or not among `spans` is
// its own root. Spans on a parent cycle (malformed input) map to SIZE_MAX.
std::vector<size_t> ResolveRoots(const std::vector<SpanNode>& spans);

// Aggregated time one span kind contributed to a class's critical paths.
struct CriticalEdge {
  std::string kind;
  uint64_t count = 0;    // critical-path segments attributed to this kind
  int64_t total_ns = 0;  // summed segment time across all roots of the class
};

// All roots of one kind (e.g. every "2pc-execute" in the run).
struct CriticalPathClass {
  std::string root_kind;
  uint64_t roots = 0;
  int64_t total_ns = 0;  // summed root durations == summed edge time
  std::vector<CriticalEdge> edges;  // sorted by total_ns desc, then kind
};

struct CriticalPathReport {
  std::vector<CriticalPathClass> classes;  // sorted by root_kind
};

// Roots are spans that are their own ResolveRoots root. Deterministic for a
// deterministic input.
CriticalPathReport AnalyzeCriticalPaths(const std::vector<SpanNode>& spans);

// Plain-text table, one block per class:
//   critical path: 2pc-execute (137 roots, total 1.92s)
//     2pc-prepare        137   820.1ms   42.7%   mean 5.99ms
// Used by the benches and by `tracecheck --critical-path`.
std::string FormatCriticalPath(const CriticalPathReport& report);

// Machine-readable form:
// {"critical_path":[{"class":...,"roots":N,"total_ns":T,
//   "edges":[{"kind":...,"count":N,"total_ns":T,"mean_ns":M,"share":S}]}]}
std::string CriticalPathJson(const CriticalPathReport& report);

}  // namespace rlobs
