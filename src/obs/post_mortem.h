// Post-mortem text over a SpanTracer's newest records: what the chaos
// explorer attaches to an episode whose oracle fired ("the last N events
// before death"), read off the same tracer that records full traces.
//
// Both dumps look at one window: the newest `last_n` records the tracer
// still holds, and none older than `since`, the tracer's total_records()
// when the run of interest began, so a tracer that also recorded earlier
// runs shows only this one.
#pragma once

#include <cstdint>
#include <string>

#include "src/obs/span_tracer.h"

namespace rlobs {

// Oldest-to-newest, one line per record:
//   "  +1.250ms      I  log-disk/medium-write arg=123456"
// (I = instant, B = span begin, E = span end), under a header counting every
// record since `since`, shown or not.
std::string DumpRecords(const SpanTracer& tracer, size_t last_n,
                        uint64_t since = 0);

// Causal slice of the window: every span record whose causal tree contains a
// begin with `arg` (spans carry the transaction gid or block seq as their
// arg). Trees are the ResolveRoots trees of the window's spans, so the dump
// shows the whole distributed chain of the matching operation: coordinator
// phase, shard handlers, decision fanout. Spans whose common parent fell out
// of the window still share a tree. Returns "" when nothing in the window
// matches (e.g. the chain is older than the window, or the run emitted no
// spans).
std::string DumpCausalChain(const SpanTracer& tracer, int64_t arg,
                            size_t last_n, uint64_t since = 0);

}  // namespace rlobs
