// Byte-level primitives every on-disk and on-wire format shares: the
// little-endian scalar codec and the FNV-1a hash.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "src/sim/check.h"

namespace rlsim {

// Every field the tree persists, ships or hashes is little-endian. The codec
// copies host representations with memcpy, which is only that byte order on
// a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the scalar codec assumes a little-endian host");

// The little-endian scalar at `offset` in `buf`.
template <typename T>
T LoadScalar(std::span<const uint8_t> buf, size_t offset) {
  static_assert(std::is_integral_v<T>);
  T v;
  RL_CHECK(offset + sizeof(T) <= buf.size());
  std::memcpy(&v, buf.data() + offset, sizeof(T));
  return v;
}

// Writes `v` little-endian at `offset` in `buf`.
template <typename T>
void StoreScalar(std::span<uint8_t> buf, size_t offset, T v) {
  static_assert(std::is_integral_v<T>);
  RL_CHECK(offset + sizeof(T) <= buf.size());
  std::memcpy(buf.data() + offset, &v, sizeof(T));
}

// 64-bit FNV-1a (xor each byte in, then multiply by the FNV prime).
//
// kFnvBasis, the starting state of every hash this tree prints (corpus
// hashes, sweep hashes, content hashes, audit digests), is not the published
// offset basis 0xcbf29ce484222325: it is that number written in decimal with
// its last digit dropped. It stays, because changing it would move every one
// of those hashes; Fnv1a(basis) starts from any other state.
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

class Fnv1a {
 public:
  constexpr Fnv1a() = default;
  constexpr explicit Fnv1a(uint64_t basis) : hash_(basis) {}

  void Mix(std::span<const uint8_t> bytes) {
    for (const uint8_t b : bytes) {
      hash_ ^= b;
      hash_ *= kFnvPrime;
    }
  }

  // Mixes the eight little-endian bytes of `v`.
  void MixU64(uint64_t v) {
    uint8_t bytes[sizeof(v)];
    StoreScalar<uint64_t>(bytes, 0, v);
    Mix(bytes);
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = kFnvBasis;
};

}  // namespace rlsim
