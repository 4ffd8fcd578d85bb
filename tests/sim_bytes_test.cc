#include "src/sim/bytes.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/sim/check.h"

namespace rlsim {
namespace {

std::span<const uint8_t> Bytes(std::string_view s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

TEST(ScalarCodecTest, StoresLittleEndian) {
  std::array<uint8_t, 15> buf{};
  StoreScalar<uint16_t>(buf, 0, 0x0102);
  StoreScalar<uint32_t>(buf, 2, 0x03040506u);
  StoreScalar<uint64_t>(buf, 6, 0x0708090A0B0C0D0Eull);
  const std::array<uint8_t, 15> want = {0x02, 0x01, 0x06, 0x05, 0x04,
                                        0x03, 0x0E, 0x0D, 0x0C, 0x0B,
                                        0x0A, 0x09, 0x08, 0x07, 0x00};
  EXPECT_EQ(buf, want);
  EXPECT_EQ(LoadScalar<uint16_t>(buf, 0), 0x0102);
  EXPECT_EQ(LoadScalar<uint32_t>(buf, 2), 0x03040506u);
  EXPECT_EQ(LoadScalar<uint64_t>(buf, 6), 0x0708090A0B0C0D0Eull);
}

TEST(ScalarCodecTest, RejectsAFieldPastTheBuffer) {
  std::vector<uint8_t> buf(8);
  EXPECT_THROW(LoadScalar<uint64_t>(buf, 1), CheckFailure);
  EXPECT_THROW(StoreScalar<uint32_t>(buf, 5, 0u), CheckFailure);
  EXPECT_NO_THROW(StoreScalar<uint32_t>(buf, 4, 0u));
}

// The published FNV-1a 64 test vectors, from the published offset basis.
TEST(Fnv1aTest, MatchesThePublishedVectors) {
  constexpr uint64_t kPublishedBasis = 0xcbf29ce484222325ull;
  Fnv1a empty(kPublishedBasis);
  empty.Mix(Bytes(""));
  EXPECT_EQ(empty.value(), 0xcbf29ce484222325ull);
  Fnv1a a(kPublishedBasis);
  a.Mix(Bytes("a"));
  EXPECT_EQ(a.value(), 0xaf63dc4c8601ec8cull);
  Fnv1a foobar(kPublishedBasis);
  foobar.Mix(Bytes("foobar"));
  EXPECT_EQ(foobar.value(), 0x85944171f73967e8ull);
}

// The tree's hashes start from kFnvBasis; these values are what every
// printed corpus, sweep and content hash is built from.
TEST(Fnv1aTest, TreeBasisIsPinned) {
  EXPECT_EQ(Fnv1a().value(), 1469598103934665603ull);
  Fnv1a a;
  a.Mix(Bytes("a"));
  EXPECT_EQ(a.value(), (kFnvBasis ^ 'a') * kFnvPrime);
}

TEST(Fnv1aTest, MixU64MixesTheLittleEndianBytes) {
  Fnv1a word;
  word.MixU64(0x0102030405060708ull);
  Fnv1a bytes;
  const std::array<uint8_t, 8> le = {8, 7, 6, 5, 4, 3, 2, 1};
  bytes.Mix(le);
  EXPECT_EQ(word.value(), bytes.value());
}

}  // namespace
}  // namespace rlsim
