#include "src/sim/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace rlsim {

namespace {

// The 8-byte fast path consumes each loaded word low-byte-first, which is
// only the input's byte order on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "Crc32c slice-by-8 assumes a little-endian host");

constexpr uint32_t kPolynomial = 0x82F63B78;  // CRC-32C, reflected

// kTables[0] is the classic byte table; kTables[k][b] extends the CRC of
// byte b by k additional zero bytes, which is what lets eight bytes be
// combined in one step: the CRC of an 8-byte word is the XOR of each byte
// looked up in the table that accounts for its distance from the end.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPolynomial : 0);
    }
    tables[0][i] = crc;
  }
  for (int t = 1; t < 8; ++t) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

const SliceTables& Tables() {
  static const SliceTables kTables = BuildTables();
  return kTables;
}

}  // namespace

uint32_t Crc32cTableDriven(std::span<const uint8_t> data, uint32_t seed) {
  const auto& table = Tables()[0];
  uint32_t crc = ~seed;
  for (uint8_t byte : data) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)
namespace {

// The instruction computes the same reflected CRC-32C step as the tables,
// on the same (pre-inverted) register.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(
    std::span<const uint8_t> data, uint32_t seed) {
  uint64_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = _mm_crc32_u8(crc32, *p);
    ++p;
    --n;
  }
  return ~crc32;
}

}  // namespace
#endif

uint32_t Crc32c(std::span<const uint8_t> data, uint32_t seed) {
#if defined(__x86_64__)
  static const bool kHasSse42 = __builtin_cpu_supports("sse4.2");
  if (kHasSse42) {
    return Crc32cSse42(data, seed);
  }
#endif
  return Crc32cSlice8(data, seed);
}

uint32_t Crc32cSlice8(std::span<const uint8_t> data, uint32_t seed) {
  const SliceTables& t = Tables();
  uint32_t crc = ~seed;
  const uint8_t* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    // Unaligned loads are folded by memcpy; byte order is handled by
    // consuming the word little-endian, matching the reflected polynomial.
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;
    crc = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][(word >> 56) & 0xFF];
    p += 8;
    n -= 8;
  }
  const auto& table = t[0];
  while (n > 0) {
    crc = (crc >> 8) ^ table[(crc ^ *p) & 0xFF];
    ++p;
    --n;
  }
  return ~crc;
}

}  // namespace rlsim
