// DivergenceAuditor: the dynamic half of the determinism discipline.
//
// The static half (tools/rapicheck) bans the *sources* of nondeterminism; this
// auditor checks the *property* end to end: run any Testbed/chaos scenario
// twice from the same seed, record each run with a SpanTracer, fold its
// instant events (src/sim/trace.h — virtual timestamp, actor, kind, payload
// CRC-32C) into per-epoch digests, and if the runs disagree, report the
// first diverging event. "Replay broke" becomes a pinpointed diff — which
// component, at which virtual time, produced different bytes — instead of a
// mystery hash mismatch at the end of a run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/span_tracer.h"

namespace rlharness {

// One virtual-time window's digest: an FNV-1a chain over every instant in
// [epoch_index * epoch_ns, (epoch_index + 1) * epoch_ns).
struct EpochDigest {
  int64_t epoch_index = 0;
  uint64_t digest = 0;
  uint64_t events = 0;

  bool operator==(const EpochDigest&) const = default;
};

// Folds a recorded run's instant records; its spans are instrumentation and
// never digested, so audits are blind to how a run is span-traced.
std::vector<EpochDigest> FoldEpochs(const rlobs::SpanTracer& run,
                                    int64_t epoch_ns);

struct DivergenceReport {
  bool identical = true;
  size_t events_a = 0;
  size_t events_b = 0;
  int64_t epoch_ns = 0;
  // First epoch whose digests disagree (virtual-time window index), and the
  // index of the first event where the two streams differ. When one stream
  // is a strict prefix of the other, the index is the shorter length.
  int64_t first_bad_epoch = -1;
  size_t first_diverging_event = 0;
  std::string event_a;  // rendered diverging event ("<end of stream>" if
  std::string event_b;  // one run stopped emitting first)

  // Multi-line human report; single "identical" line when runs agree.
  std::string Summary() const;
};

class DivergenceAuditor {
 public:
  // Epoch width in virtual nanoseconds. 100ms folds a sub-second chaos
  // episode into a handful of digests without hiding where the split is.
  explicit DivergenceAuditor(int64_t epoch_ns = 100'000'000)
      : epoch_ns_(epoch_ns) {}

  // Runs the scenario twice with a fresh tracer each time and compares.
  // The scenario must be a pure function of its own inputs (seed, config):
  // anything else IS the nondeterminism this auditor exists to catch. With
  // jobs >= 2 the two runs execute on concurrent worker threads
  // (src/harness/parallel_runner) — legitimate precisely because the
  // scenario is required to be pure; the comparison is unchanged.
  using RunFn = std::function<void(rlobs::SpanTracer& tracer)>;
  DivergenceReport RunTwice(const RunFn& run, int jobs = 1) const;

  // Compares the instant streams of two recorded runs.
  DivergenceReport Compare(const rlobs::SpanTracer& a,
                           const rlobs::SpanTracer& b) const;

 private:
  int64_t epoch_ns_;
};

}  // namespace rlharness
