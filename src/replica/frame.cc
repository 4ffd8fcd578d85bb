#include "src/replica/frame.h"

#include <cstring>

#include "src/sim/bytes.h"
#include "src/sim/crc32.h"

namespace rlrep {

using rlsim::LoadScalar;
using rlsim::StoreScalar;

std::optional<FrameType> PeekFrameType(std::span<const uint8_t> buffer) {
  if (buffer.empty()) {
    return std::nullopt;
  }
  const uint8_t t = buffer[0];
  if (t < static_cast<uint8_t>(FrameType::kShip) ||
      t > static_cast<uint8_t>(FrameType::kReset)) {
    return std::nullopt;
  }
  return static_cast<FrameType>(t);
}

std::vector<uint8_t> EncodeShip(uint64_t seq, uint64_t lba,
                                std::span<const uint8_t> payload) {
  std::vector<uint8_t> buf(kShipHeaderBytes + payload.size());
  buf[0] = static_cast<uint8_t>(FrameType::kShip);
  StoreScalar<uint64_t>(buf, 1, seq);
  StoreScalar<uint64_t>(buf, 9, lba);
  StoreScalar<uint32_t>(buf, 17, static_cast<uint32_t>(payload.size()));
  StoreScalar<uint32_t>(buf, 21, rlsim::Crc32c(payload));
  std::memcpy(buf.data() + kShipHeaderBytes, payload.data(), payload.size());
  return buf;
}

std::vector<uint8_t> EncodeAck(uint64_t cursor) {
  std::vector<uint8_t> buf(1 + 8);
  buf[0] = static_cast<uint8_t>(FrameType::kAck);
  StoreScalar<uint64_t>(buf, 1, cursor);
  return buf;
}

std::vector<uint8_t> EncodeReset(uint64_t next_seq) {
  std::vector<uint8_t> buf(1 + 8);
  buf[0] = static_cast<uint8_t>(FrameType::kReset);
  StoreScalar<uint64_t>(buf, 1, next_seq);
  return buf;
}

std::optional<ShipFrame> DecodeShip(std::span<const uint8_t> buffer) {
  if (buffer.size() < kShipHeaderBytes ||
      buffer[0] != static_cast<uint8_t>(FrameType::kShip)) {
    return std::nullopt;
  }
  ShipFrame frame;
  frame.seq = LoadScalar<uint64_t>(buffer, 1);
  frame.lba = LoadScalar<uint64_t>(buffer, 9);
  const uint32_t len = LoadScalar<uint32_t>(buffer, 17);
  frame.crc = LoadScalar<uint32_t>(buffer, 21);
  if (buffer.size() != kShipHeaderBytes + len) {
    return std::nullopt;
  }
  const auto payload = buffer.subspan(kShipHeaderBytes);
  if (rlsim::Crc32c(payload) != frame.crc) {
    return std::nullopt;
  }
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

std::optional<AckFrame> DecodeAck(std::span<const uint8_t> buffer) {
  if (buffer.size() != 1 + 8 ||
      buffer[0] != static_cast<uint8_t>(FrameType::kAck)) {
    return std::nullopt;
  }
  return AckFrame{.cursor = LoadScalar<uint64_t>(buffer, 1)};
}

std::optional<ResetFrame> DecodeReset(std::span<const uint8_t> buffer) {
  if (buffer.size() != 1 + 8 ||
      buffer[0] != static_cast<uint8_t>(FrameType::kReset)) {
    return std::nullopt;
  }
  return ResetFrame{.next_seq = LoadScalar<uint64_t>(buffer, 1)};
}

}  // namespace rlrep
