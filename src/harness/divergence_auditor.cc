#include "src/harness/divergence_auditor.h"

#include <algorithm>
#include <cstdio>

#include "src/harness/parallel_runner.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"

namespace rlharness {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

using Record = rlobs::SpanTracer::Record;

// One recorded run's audited stream: its instant records in emission order,
// with the CRC-32C of every interned actor/kind name computed once.
struct Instants {
  explicit Instants(const rlobs::SpanTracer& run) : tracer(run) {
    for (size_t i = 0; i < run.name_count(); ++i) {
      const std::string& name = run.name(static_cast<uint16_t>(i));
      name_crc.push_back(rlsim::Crc32c(
          {reinterpret_cast<const uint8_t*>(name.data()), name.size()}));
    }
    for (const Record& r : run.records()) {
      if (r.type == rlobs::SpanTracer::EventType::kInstant) {
        events.push_back(&r);
      }
    }
  }

  bool Same(size_t i, const Instants& other) const {
    const Record& a = *events[i];
    const Record& b = *other.events[i];
    return a.at_ns == b.at_ns && a.arg == b.arg &&
           tracer.name(a.actor) == other.tracer.name(b.actor) &&
           tracer.name(a.kind) == other.tracer.name(b.kind);
  }

  std::string Render(size_t i) const {
    if (i >= events.size()) {
      return "<end of stream>";
    }
    const Record& e = *events[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf), "[%10lld us] %s %s crc=%08x",
                  static_cast<long long>(e.at_ns / 1000),
                  tracer.name(e.actor).c_str(), tracer.name(e.kind).c_str(),
                  static_cast<uint32_t>(e.arg));
    return buf;
  }

  const rlobs::SpanTracer& tracer;
  std::vector<uint32_t> name_crc;
  std::vector<const Record*> events;
};

std::vector<EpochDigest> Fold(const Instants& run, int64_t epoch_ns) {
  RL_CHECK(epoch_ns > 0);
  std::vector<EpochDigest> epochs;
  for (const Record* e : run.events) {
    const int64_t idx = e->at_ns / epoch_ns;
    if (epochs.empty() || epochs.back().epoch_index != idx) {
      // Trace events arrive in nondecreasing virtual time, so epochs close
      // in order; empty windows are simply absent.
      RL_CHECK(epochs.empty() || epochs.back().epoch_index < idx);
      epochs.push_back(EpochDigest{idx, kFnvOffset, 0});
    }
    uint64_t h = epochs.back().digest;
    h = FnvMix(h, static_cast<uint64_t>(e->at_ns));
    h = FnvMix(h, run.name_crc[e->actor]);
    h = FnvMix(h, run.name_crc[e->kind]);
    h = FnvMix(h, static_cast<uint32_t>(e->arg));  // the payload CRC
    epochs.back().digest = h;
    ++epochs.back().events;
  }
  return epochs;
}

}  // namespace

std::vector<EpochDigest> FoldEpochs(const rlobs::SpanTracer& run,
                                    int64_t epoch_ns) {
  return Fold(Instants(run), epoch_ns);
}

std::string DivergenceReport::Summary() const {
  char buf[256];
  if (identical) {
    std::snprintf(buf, sizeof(buf),
                  "identical: %zu events, digests agree in every epoch",
                  events_a);
    return buf;
  }
  std::snprintf(
      buf, sizeof(buf),
      "DIVERGED at event %zu (epoch %lld, %lld us window):\n"
      "  run 1: %s\n  run 2: %s\n  (%zu vs %zu events total)",
      first_diverging_event, static_cast<long long>(first_bad_epoch),
      static_cast<long long>(epoch_ns / 1000), event_a.c_str(),
      event_b.c_str(), events_a, events_b);
  return buf;
}

DivergenceReport DivergenceAuditor::Compare(
    const rlobs::SpanTracer& run_a, const rlobs::SpanTracer& run_b) const {
  const Instants a(run_a);
  const Instants b(run_b);
  DivergenceReport report;
  report.events_a = a.events.size();
  report.events_b = b.events.size();
  report.epoch_ns = epoch_ns_;
  if (Fold(a, epoch_ns_) == Fold(b, epoch_ns_)) {
    // Digest equality over every epoch implies (modulo CRC collisions) the
    // streams agree; skip the per-event scan.
    return report;
  }
  report.identical = false;
  const size_t common = std::min(a.events.size(), b.events.size());
  size_t i = 0;
  while (i < common && a.Same(i, b)) {
    ++i;
  }
  report.first_diverging_event = i;
  report.event_a = a.Render(i);
  report.event_b = b.Render(i);
  const int64_t at_ns = i < a.events.size()   ? a.events[i]->at_ns
                        : i < b.events.size() ? b.events[i]->at_ns
                                              : 0;
  report.first_bad_epoch = at_ns / epoch_ns_;
  return report;
}

DivergenceReport DivergenceAuditor::RunTwice(const RunFn& run,
                                             int jobs) const {
  rlobs::SpanTracer tracers[2];
  RunIndexedJobs(jobs, 2, [&run, &tracers](size_t i) { run(tracers[i]); });
  return Compare(tracers[0], tracers[1]);
}

}  // namespace rlharness
