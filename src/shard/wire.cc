#include "src/shard/wire.h"

#include <algorithm>

#include "src/sim/bytes.h"
#include "src/sim/check.h"

namespace rlshard {

namespace {

using rlsim::LoadScalar;
using rlsim::StoreScalar;

// [u8 type][u64 global_id][u8 flag][u32 n_ops]
constexpr size_t kHeaderBytes = 14;
// [u8 is_delete][u64 key][u16 vlen]
constexpr size_t kOpHeaderBytes = 11;
constexpr size_t kMaxValueBytes = 0xFFFF;
constexpr size_t kMaxOps = 0xFFFF'FFFF;

// The fixed header of the op record at `op`.
std::span<const uint8_t> OpHeader(const uint8_t* op) {
  return {op, kOpHeaderBytes};
}

size_t ValueLength(const uint8_t* op) {
  return LoadScalar<uint16_t>(OpHeader(op), 9);
}

}  // namespace

WireOpView WireOps::Iterator::operator*() const {
  return WireOpView{.is_delete = pos_[0] != 0,
                    .key = LoadScalar<uint64_t>(OpHeader(pos_), 1),
                    .value = {pos_ + kOpHeaderBytes, ValueLength(pos_)}};
}

WireOps::Iterator& WireOps::Iterator::operator++() {
  pos_ += kOpHeaderBytes + ValueLength(pos_);
  return *this;
}

std::vector<uint8_t> EncodeMessage(const WireMessage& msg,
                                   std::vector<uint8_t> buf) {
  RL_CHECK_MSG(msg.ops.size() <= kMaxOps,
               "wire frame of " << msg.ops.size()
                                << " ops exceeds the u32 op count");
  size_t bytes = kHeaderBytes;
  for (const WireOp& op : msg.ops) {
    RL_CHECK_MSG(op.value.size() <= kMaxValueBytes,
                 "wire op value of " << op.value.size()
                                     << " bytes exceeds the u16 length field");
    bytes += kOpHeaderBytes + op.value.size();
  }
  buf.resize(bytes);
  buf[0] = static_cast<uint8_t>(msg.type);
  StoreScalar<uint64_t>(buf, 1, msg.global_id);
  buf[9] = msg.flag;
  StoreScalar<uint32_t>(buf, 10, static_cast<uint32_t>(msg.ops.size()));
  size_t pos = kHeaderBytes;
  for (const WireOp& op : msg.ops) {
    buf[pos] = op.is_delete ? 1 : 0;
    StoreScalar<uint64_t>(buf, pos + 1, op.key);
    StoreScalar<uint16_t>(buf, pos + 9,
                          static_cast<uint16_t>(op.value.size()));
    std::copy(op.value.begin(), op.value.end(),
              buf.begin() + static_cast<ptrdiff_t>(pos + kOpHeaderBytes));
    pos += kOpHeaderBytes + op.value.size();
  }
  return buf;
}

bool DecodeMessage(std::span<const uint8_t> buf, WireFrame* out) {
  if (buf.size() < kHeaderBytes) {
    return false;
  }
  const uint8_t type = buf[0];
  if (type < 1 || type > static_cast<uint8_t>(MsgType::kQueryResp)) {
    return false;
  }
  // The op records must fill the rest of the frame exactly. Each takes at
  // least kOpHeaderBytes, so a huge count fails within size/11 steps.
  const uint64_t n_ops = LoadScalar<uint32_t>(buf, 10);
  size_t pos = kHeaderBytes;
  for (uint64_t i = 0; i < n_ops; ++i) {
    if (buf.size() - pos < kOpHeaderBytes) {
      return false;
    }
    const size_t vlen = ValueLength(&buf[pos]);
    pos += kOpHeaderBytes;
    if (buf.size() - pos < vlen) {
      return false;
    }
    pos += vlen;
  }
  if (pos != buf.size()) {
    return false;
  }
  out->type = static_cast<MsgType>(type);
  out->global_id = LoadScalar<uint64_t>(buf, 1);
  out->flag = buf[9];
  out->ops = WireOps(buf.subspan(kHeaderBytes), static_cast<size_t>(n_ops));
  return true;
}

std::string ToString(MsgType type) {
  switch (type) {
    case MsgType::kPrepareReq:
      return "prepare";
    case MsgType::kVote:
      return "vote";
    case MsgType::kExecuteReq:
      return "execute";
    case MsgType::kExecuteResp:
      return "execute-resp";
    case MsgType::kDecision:
      return "decision";
    case MsgType::kDecisionAck:
      return "decision-ack";
    case MsgType::kQuery:
      return "query";
    case MsgType::kQueryResp:
      return "query-resp";
  }
  return "unknown";
}

}  // namespace rlshard
