#include "src/obs/span_tracer.h"

#include "src/sim/check.h"

namespace rlobs {

uint16_t SpanTracer::Intern(std::string_view s) {
  CacheSlot& slot =
      cache_[(reinterpret_cast<uintptr_t>(s.data()) >> 3) % cache_.size()];
  if (slot.data != nullptr && slot.data == s.data() && names_[slot.id] == s) {
    return slot.id;
  }
  const auto it = index_.find(s);
  uint16_t id;
  if (it != index_.end()) {
    id = it->second;
  } else {
    RL_CHECK_MSG(names_.size() < UINT16_MAX,
                 "SpanTracer interning table overflow");
    id = static_cast<uint16_t>(names_.size());
    names_.emplace_back(s);
    index_.emplace(names_.back(), id);
  }
  slot = CacheSlot{s.data(), id};
  return id;
}

void SpanTracer::Push(const Record& r) {
  if (bound_ != 0 && records_.size() == 2 * bound_) {
    records_.erase(records_.begin(), records_.begin() + bound_);
  }
  records_.push_back(r);
  ++total_;
}

void SpanTracer::OnTraceEvent(rlsim::TimePoint at, std::string_view actor,
                              std::string_view kind, uint32_t payload_crc) {
  Push(Record{at.nanos(), 0, 0, static_cast<int64_t>(payload_crc),
              Intern(actor), Intern(kind), EventType::kInstant});
}

void SpanTracer::OnSpanBegin(rlsim::TimePoint at, std::string_view actor,
                             std::string_view kind, uint64_t span_id,
                             uint64_t parent, int64_t arg) {
  Push(Record{at.nanos(), span_id, parent, arg, Intern(actor), Intern(kind),
              EventType::kBegin});
}

void SpanTracer::OnSpanEnd(rlsim::TimePoint at, std::string_view actor,
                           std::string_view kind, uint64_t span_id,
                           int64_t arg) {
  Push(Record{at.nanos(), span_id, 0, arg, Intern(actor), Intern(kind),
              EventType::kEnd});
}

void SpanTracer::Clear() {
  cache_ = {};
  index_.clear();
  names_.clear();
  records_.clear();
  total_ = 0;
}

}  // namespace rlobs
