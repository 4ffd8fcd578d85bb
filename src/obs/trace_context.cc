#include "src/obs/trace_context.h"

#include <cstddef>

#include "src/sim/bytes.h"

namespace rlobs {

namespace {

using rlsim::LoadScalar;
using rlsim::StoreScalar;

// "RLTC" little-endian.
constexpr uint32_t kMagic = 0x43544C52u;
constexpr size_t kEncodedSize = 4 + 8 + 8 + 8;

}  // namespace

std::vector<uint8_t> TraceContext::Encode() const {
  std::vector<uint8_t> out;
  if (!valid()) {
    return out;
  }
  out.resize(kEncodedSize);
  StoreScalar<uint32_t>(out, 0, kMagic);
  StoreScalar<uint64_t>(out, 4, trace_id);
  StoreScalar<uint64_t>(out, 12, parent_span);
  StoreScalar<int64_t>(out, 20, origin_ns);
  return out;
}

TraceContext TraceContext::Decode(const std::vector<uint8_t>& ext) {
  TraceContext ctx;
  if (ext.size() != kEncodedSize || LoadScalar<uint32_t>(ext, 0) != kMagic) {
    return ctx;
  }
  ctx.trace_id = LoadScalar<uint64_t>(ext, 4);
  ctx.parent_span = LoadScalar<uint64_t>(ext, 12);
  ctx.origin_ns = LoadScalar<int64_t>(ext, 20);
  return ctx;
}

}  // namespace rlobs
