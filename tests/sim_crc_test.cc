// CRC-32C: both fast implementations — the production entry point (the
// CPU's CRC instruction where the host has one) and the portable
// slice-by-8 — must agree with the one-byte-at-a-time table-driven
// reference for every input: all small lengths (covering every tail-loop
// count), unaligned starts, random payloads, seed chaining — plus the
// standard known-answer vector.
#include "src/sim/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/sim/rng.h"

namespace {

std::span<const uint8_t> Bytes(const char* s) {
  return {reinterpret_cast<const uint8_t*>(s), std::strlen(s)};
}

using CrcFn = uint32_t (*)(std::span<const uint8_t>, uint32_t);
const struct {
  const char* name;
  CrcFn crc;
} kFast[] = {{"Crc32c", &rlsim::Crc32c}, {"Crc32cSlice8", &rlsim::Crc32cSlice8}};

TEST(Crc32cTest, KnownAnswerVector) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // implementation's self-test): crc32c("123456789") == 0xE3069283.
  for (const auto& f : kFast) {
    EXPECT_EQ(f.crc(Bytes("123456789"), 0), 0xE3069283u) << f.name;
  }
  EXPECT_EQ(rlsim::Crc32cTableDriven(Bytes("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyInput) {
  EXPECT_EQ(rlsim::Crc32cTableDriven({}), 0u);
  for (const auto& f : kFast) {
    EXPECT_EQ(f.crc({}, 0), 0u) << f.name;
    // An empty update must preserve any seed, not reset it.
    EXPECT_EQ(f.crc({}, 0xDEADBEEF), 0xDEADBEEFu) << f.name;
  }
  EXPECT_EQ(rlsim::Crc32cTableDriven({}, 0xDEADBEEF), 0xDEADBEEFu);
}

TEST(Crc32cTest, FastPathsMatchTableOnEveryLength) {
  // 0..129 covers: pure tail loop (<8), exactly one word, word+tail for
  // every tail size, and many words. Random payloads so table symmetry
  // can't mask a byte-order bug.
  rlsim::Rng rng(7);
  std::vector<uint8_t> buf(130);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t len = 0; len <= buf.size(); ++len) {
    const std::span<const uint8_t> data(buf.data(), len);
    for (const auto& f : kFast) {
      EXPECT_EQ(f.crc(data, 0), rlsim::Crc32cTableDriven(data))
          << f.name << " length " << len;
    }
  }
}

TEST(Crc32cTest, UnalignedStartsMatch) {
  // The word loop uses memcpy loads; verify every misalignment of the
  // buffer start against the reference.
  rlsim::Rng rng(11);
  std::vector<uint8_t> buf(64 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  for (size_t offset = 0; offset < 16; ++offset) {
    const std::span<const uint8_t> data(buf.data() + offset, 64);
    for (const auto& f : kFast) {
      EXPECT_EQ(f.crc(data, 0), rlsim::Crc32cTableDriven(data))
          << f.name << " offset " << offset;
    }
  }
}

TEST(Crc32cTest, SeedsAndChainingMatch) {
  rlsim::Rng rng(13);
  std::vector<uint8_t> buf(257);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const std::span<const uint8_t> all(buf);
  for (uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0x12345678u}) {
    for (const auto& f : kFast) {
      EXPECT_EQ(f.crc(all, seed), rlsim::Crc32cTableDriven(all, seed))
          << f.name << " seed " << seed;
    }
  }
  // Feeding a split buffer through the seed parameter equals one pass, for
  // every implementation and any cut point (this is what WAL record
  // verification relies on).
  for (size_t cut : {0u, 1u, 7u, 8u, 9u, 128u, 256u, 257u}) {
    const std::span<const uint8_t> head(buf.data(), cut);
    const std::span<const uint8_t> tail(buf.data() + cut, buf.size() - cut);
    for (const auto& f : kFast) {
      EXPECT_EQ(f.crc(tail, f.crc(head, 0)), f.crc(all, 0))
          << f.name << " cut " << cut;
    }
    EXPECT_EQ(rlsim::Crc32cTableDriven(tail, rlsim::Crc32cTableDriven(head)),
              rlsim::Crc32cTableDriven(all))
        << "cut " << cut;
  }
}

TEST(Crc32cTest, LargeRandomBuffersMatch) {
  rlsim::Rng rng(17);
  for (size_t size : {4096u, 4097u, 4099u, 65536u + 3u}) {
    std::vector<uint8_t> buf(size);
    for (uint8_t& b : buf) {
      b = static_cast<uint8_t>(rng.Next());
    }
    for (const auto& f : kFast) {
      EXPECT_EQ(f.crc(buf, 0), rlsim::Crc32cTableDriven(buf))
          << f.name << " size " << size;
    }
  }
}

}  // namespace
