// Wire protocol between the transaction coordinator and shard nodes.
//
// Messages ride rlnet::NetworkFabric frames, which are lossy and unordered
// across links — every protocol obligation here is therefore end-to-end:
// votes answer prepares, acks answer decisions, and anything lost is
// re-driven by the coordinator's decision pusher or the shard's in-doubt
// resolver, never by the fabric.
//
// Fields are little-endian (the src/sim/bytes.h codec) and every length is
// checked against the frame, so a torn/garbage frame decodes to false
// rather than UB.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace rlshard {

enum class MsgType : uint8_t {
  // coordinator -> shard: log + prepare this write-set under the global id.
  kPrepareReq = 1,
  // shard -> coordinator: yes/no vote (flag). A yes vote is only sent after
  // the prepare record is durable, so a received yes is a binding promise.
  kVote = 2,
  // coordinator -> shard: single-shard fast path — execute and commit the
  // write-set locally in one round trip, no prepare state left behind.
  kExecuteReq = 3,
  // shard -> coordinator: fast-path result (flag = committed).
  kExecuteResp = 4,
  // coordinator -> shard: the decision (flag = commit). Retransmitted until
  // acked; shards apply it idempotently.
  kDecision = 5,
  // shard -> coordinator: decision applied (or already resolved).
  kDecisionAck = 6,
  // shard -> coordinator: what became of this global id? Sent by the
  // in-doubt resolver for prepared transactions whose decision never came.
  kQuery = 7,
  // coordinator -> shard: answer (flag = QueryAnswer).
  kQueryResp = 8,
};

// kQueryResp flag values. Presumed abort: the coordinator answers kCommit
// only from its durable decision log, kPending only for a transaction it is
// actively driving, and kAbort otherwise — an in-doubt transaction with no
// logged decision and no live coordinator state can never commit.
enum class QueryAnswer : uint8_t {
  kAbort = 0,
  kCommit = 1,
  kPending = 2,
};

struct WireOp {
  bool is_delete = false;
  uint64_t key = 0;
  std::vector<uint8_t> value;  // empty for deletes
};

// What the sender encodes. Decoding reads a frame in place instead (see
// WireFrame), so no op value is copied out of a delivered frame.
struct WireMessage {
  MsgType type = MsgType::kPrepareReq;
  uint64_t global_id = 0;
  uint8_t flag = 0;          // vote yes / decision commit / QueryAnswer
  std::vector<WireOp> ops;   // kPrepareReq / kExecuteReq only

  static WireMessage Make(MsgType type, uint64_t global_id,
                          uint8_t flag = 0) {
    WireMessage m;
    m.type = type;
    m.global_id = global_id;
    m.flag = flag;
    return m;
  }
};

// One op of a decoded frame; `value` points into the frame's bytes.
struct WireOpView {
  bool is_delete = false;
  uint64_t key = 0;
  std::span<const uint8_t> value;
};

// The op records of a decoded frame, read in place: iterating yields a
// WireOpView per op, in frame order. DecodeMessage has already validated
// every record, so iteration cannot fail. The frame's bytes must outlive
// the range and every view taken from it.
class WireOps {
 public:
  class Iterator {
   public:
    explicit Iterator(const uint8_t* pos) : pos_(pos) {}
    WireOpView operator*() const;
    Iterator& operator++();
    bool operator==(const Iterator&) const = default;

   private:
    const uint8_t* pos_ = nullptr;
  };

  WireOps() = default;
  WireOps(std::span<const uint8_t> records, size_t count)
      : records_(records), count_(count) {}

  size_t size() const { return count_; }
  Iterator begin() const { return Iterator(records_.data()); }
  Iterator end() const {
    return Iterator(records_.data() + records_.size());
  }

 private:
  std::span<const uint8_t> records_;
  size_t count_ = 0;
};

// A decoded frame: the header fields, and its ops as views into the frame.
struct WireFrame {
  MsgType type = MsgType::kPrepareReq;
  uint64_t global_id = 0;
  uint8_t flag = 0;
  WireOps ops;
};

// [u8 type][u64 global_id][u8 flag][u32 n_ops] then per op
// [u8 is_delete][u64 key][u16 vlen][vlen bytes].
//
// Encodes into `buf`'s storage (a recycled payload buffer from
// rlnet::NetworkFabric::TakeBuffer; its contents are discarded), sized once
// for the whole frame, and returns it. A value of 64 KiB or more, or more
// than 2^32 - 1 ops, does not fit the frame's length fields and is a check
// failure, never a truncated frame.
std::vector<uint8_t> EncodeMessage(const WireMessage& msg,
                                   std::vector<uint8_t> buf = {});

// Strict decode: validates the whole frame before filling `out`, and
// returns false on a short, oversized, or trailing-garbage frame or an
// unknown type. `out->ops` views `buf`, so `buf` must outlive it. `out` is
// unspecified on failure.
bool DecodeMessage(std::span<const uint8_t> buf, WireFrame* out);

std::string ToString(MsgType type);

}  // namespace rlshard
