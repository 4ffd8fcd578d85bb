// In-memory span recorder.
//
// SpanTracer is the one in-memory TraceEventSink: it keeps the instant,
// span-begin and span-end events a run emits, with actor/kind strings interned
// once so a multi-million-event run stores 40-byte POD records, not strings.
// The recorded stream is what src/obs/chrome_trace.h serialises to Chrome
// trace-event JSON for Perfetto, what src/obs/post_mortem.h dumps when an
// oracle fires, and what the DivergenceAuditor (src/harness) digests.
//
// Unbounded by default. With a bound N it keeps at least the newest N
// records: once it holds 2N it drops its oldest N, so records() stays one
// contiguous vector in emission order at an amortised O(1) per record. The
// chaos explorer arms a 512-record tracer on every episode this way.
//
// Determinism: the tracer is purely passive (never re-enters the simulator),
// interning uses a sorted std::map, and record order is exactly the
// simulator's deterministic emission order — recording a run twice from the
// same seed yields byte-identical exports.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/trace.h"

namespace rlobs {

class SpanTracer : public rlsim::TraceEventSink {
 public:
  enum class EventType : uint8_t {
    kInstant = 0,
    kBegin = 1,
    kEnd = 2,
  };

  struct Record {
    int64_t at_ns;
    uint64_t span_id;  // 0 for instants
    uint64_t parent;   // parent span id on begins, 0 for roots/instants/ends
    int64_t arg;       // payload CRC for instants, caller arg for spans
    uint16_t actor;    // index into names()
    uint16_t kind;     // index into names()
    EventType type;
  };

  // bound = 0 keeps every record.
  explicit SpanTracer(size_t bound = 0) : bound_(bound) {}

  void OnTraceEvent(rlsim::TimePoint at, std::string_view actor,
                    std::string_view kind, uint32_t payload_crc) override;
  void OnSpanBegin(rlsim::TimePoint at, std::string_view actor,
                   std::string_view kind, uint64_t span_id, uint64_t parent,
                   int64_t arg) override;
  void OnSpanEnd(rlsim::TimePoint at, std::string_view actor,
                 std::string_view kind, uint64_t span_id,
                 int64_t arg) override;

  const std::vector<Record>& records() const { return records_; }
  // Records ever observed, including those a bound has dropped.
  uint64_t total_records() const { return total_; }
  const std::string& name(uint16_t index) const { return names_[index]; }
  size_t name_count() const { return names_.size(); }

  void Clear();

 private:
  uint16_t Intern(std::string_view s);
  void Push(const Record& r);

  // Interning table: name -> index into names_. std::less<> enables lookup
  // by string_view without constructing a std::string per event.
  std::map<std::string, uint16_t, std::less<>> index_;
  // Direct-mapped cache in front of index_, slotted by where the caller's
  // string lives: emitters pass literals and long-lived names, so most
  // lookups skip the map. A hit is confirmed by content, so a reused buffer
  // never yields a wrong index; addresses decide speed, never a result.
  struct CacheSlot {
    const char* data = nullptr;
    uint16_t id = 0;
  };
  std::array<CacheSlot, 64> cache_{};
  std::vector<std::string> names_;
  std::vector<Record> records_;
  size_t bound_;
  uint64_t total_ = 0;
};

}  // namespace rlobs
