// Deterministic execution tracing.
//
// Components emit (virtual timestamp, actor, kind, payload CRC) events into
// an optional sink hung off the Simulator. With no sink installed tracing is
// a null check and costs nothing, so the instrumentation can stay on in
// every build. The DivergenceAuditor (src/harness) runs a scenario twice
// from the same seed and compares the two instant streams to pinpoint the
// first nondeterministic event — the dynamic cross-check behind rapicheck's
// static determinism rules.
//
// Besides instant events, sinks can observe *spans*: begin/end pairs carrying
// an actor, a kind, a simulator-assigned span id and a small integer
// argument. Spans decompose a commit's virtual-time cost into per-stage
// durations (guest WAL wait -> VMM transit -> RapiLog buffer -> physical
// medium -> ack); src/obs/span_tracer.h records them and
// src/obs/chrome_trace.h exports them as Chrome trace-event JSON for
// Perfetto.
#pragma once

#include <cstdint>
#include <string_view>

#include "src/sim/time.h"

namespace rlsim {

class TraceEventSink {
 public:
  virtual ~TraceEventSink() = default;

  // `actor` names the emitting component (e.g. "log-disk", "testbed"),
  // `kind` the event (e.g. "medium-write"), and `payload_crc` a CRC-32C
  // digest of whatever payload identifies the event's effect (data bytes,
  // LBA, replica index). Emission order is the simulator's deterministic
  // execution order; the sink must not re-enter the simulator.
  virtual void OnTraceEvent(TimePoint at, std::string_view actor,
                            std::string_view kind, uint32_t payload_crc) = 0;

  // Span protocol. `span_id` pairs a begin with its end and is unique per
  // simulator; `parent` is the id of the causally-enclosing span (0 = root),
  // which is what stitches per-node span fragments into one distributed
  // tree — a TraceContext carried in a frame extension hands the sender's
  // span id to the receiving node, which opens its handler span with that id
  // as `parent`. `arg` is whatever small integer identifies the operation
  // (bytes, LBA, record count, transaction gid). The same prohibition
  // applies: a sink must not re-enter the simulator from these callbacks.
  virtual void OnSpanBegin(TimePoint at, std::string_view actor,
                           std::string_view kind, uint64_t span_id,
                           uint64_t parent, int64_t arg) = 0;
  virtual void OnSpanEnd(TimePoint at, std::string_view actor,
                         std::string_view kind, uint64_t span_id,
                         int64_t arg) = 0;
};

}  // namespace rlsim
