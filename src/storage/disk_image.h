// The persistent medium: byte-accurate sector contents with a persistence
// ledger distinguishing durable bytes (survive power loss) from bytes that
// only exist in a volatile write cache. A sector is written whole, so its
// durable contents are always one complete write: a power cut mid-request
// lands a prefix of the request's sectors (SimBlockDevice), never part of
// one sector.
//
// Sparse: unwritten sectors read as zeros. Sectors are held in aligned
// 16-sector (8 KiB) extents with a presence mask, so an engine page or a run
// of log blocks costs one allocation, not one per sector; an extent exists
// only once one of its sectors has been written. Multi-sector calls do one
// map lookup per extent they touch. The volatile cache recycles the extents
// that hardening empties (up to kMaxSpareCacheExtents), so a cached write
// does not allocate and free 8 KiB each time.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/node_pool.h"
#include "src/storage/block.h"

namespace rlstor {

// Persistence state of one sector.
enum class SectorState {
  kUnwritten,       // never written; reads as zeros; durable by definition
  kDurable,         // on the medium; survives power loss
  kCachedVolatile,  // newest contents only in volatile cache
};

class DiskImage {
 public:
  explicit DiskImage(uint64_t sector_count);

  uint64_t sector_count() const { return sector_count_; }

  // Every call that takes a buffer covers the sectors from `sector` on, one
  // per kSectorSize bytes of it; the buffer must be a positive whole number
  // of sectors and the range must fit the image.

  // Newest contents, regardless of durability (read-your-writes: the cache
  // shadows the medium).
  void Read(uint64_t sector, std::span<uint8_t> out) const;

  // Writes into the volatile cache (not durable until hardened).
  void WriteCached(uint64_t sector, std::span<const uint8_t> data);

  // Writes straight to the medium (durable at once).
  void WriteDurable(uint64_t sector, std::span<const uint8_t> data);

  // Moves the cached contents of `count` sectors from `sector` on onto the
  // medium. Sectors that are not cached are left alone.
  void Harden(uint64_t sector, uint64_t count = 1);

  // Drops the volatile cache, as a power cut does.
  void PowerLoss();

  SectorState state(uint64_t sector) const;
  bool IsDurable(uint64_t sector) const;

  // Number of sectors currently held only in the volatile cache.
  size_t cached_sector_count() const { return cached_sectors_; }
  uint64_t cached_bytes() const { return cached_sectors_ * kSectorSize; }

  // Reads only what is on the durable medium (what recovery would see after
  // a power cut), ignoring the volatile cache.
  void ReadDurable(uint64_t sector, std::span<uint8_t> out) const;

  // Every sector with durable medium contents, ascending. Only tests call
  // it, to find a log's newest durable sector.
  std::vector<uint64_t> DurableSectorList() const;

  // Replaces sectors [0, count) of this image with what a power cut would
  // leave of `src`'s sectors [first, first + count): their durable contents,
  // shifted down to sector 0. Cached contents of either image are dropped
  // from the window; a sector `src` never made durable reads as zeros.
  // Sectors from `count` on are left alone.
  void CopyDurableWindow(const DiskImage& src, uint64_t first,
                         uint64_t count);

 private:
  static constexpr uint64_t kExtentSectors = 16;
  static constexpr size_t kMaxSpareCacheExtents = 16;  // one destage run

  struct Extent {
    // Leaves `bytes` uninitialised: only present sectors are ever read, so
    // zeroing 8 KiB for every new extent would be wasted.
    Extent() {}
    std::array<uint8_t, kExtentSectors * kSectorSize> bytes;
    uint16_t present = 0;  // bit i: sector i of the extent holds contents
  };
  using ExtentMap = std::unordered_map<uint64_t, Extent>;

  static uint16_t Bit(uint64_t sector) {
    return static_cast<uint16_t>(1u << (sector % kExtentSectors));
  }
  static std::span<uint8_t> SectorBytes(Extent& e, uint64_t sector);
  static std::span<const uint8_t> SectorBytes(const Extent& e,
                                              uint64_t sector);
  // The extent holding `sector` if that sector is present in `map`.
  static const Extent* Find(const ExtentMap& map, uint64_t sector);
  // The extent at `index` in `map`, or nullptr.
  static const Extent* FindExtent(const ExtentMap& map, uint64_t index);
  // Calls fn(index, first, n, done) for each extent the `count` sectors
  // from `sector` touch: sectors [first, first + n) of extent `index`, which
  // are sectors [done, done + n) of the range.
  template <typename Fn>
  static void ForEachExtent(uint64_t sector, uint64_t count, Fn&& fn);
  // Drops the sectors of `bits` in extent `index` from the volatile cache.
  void DropCached(uint64_t index, uint16_t bits);
  // The extents of `map` holding a sector of [first, first + count),
  // ascending.
  static std::vector<uint64_t> ExtentsIn(const ExtentMap& map,
                                         uint64_t first, uint64_t count);
  // The sectors of extent `index` that lie in [first, first + count).
  static uint16_t WindowBits(uint64_t index, uint64_t first, uint64_t count);

  void CheckRange(uint64_t sector) const;
  // Checks that `bytes` from `sector` on lie in the image; returns the
  // number of sectors.
  uint64_t CheckRange(uint64_t sector, size_t bytes) const;

  uint64_t sector_count_;
  ExtentMap durable_;
  ExtentMap cache_;
  // Recycles the cache's extents: the write-back cache empties and refills
  // them constantly.
  rlsim::NodePool<ExtentMap> cache_nodes_{kMaxSpareCacheExtents};
  size_t cached_sectors_ = 0;
};

}  // namespace rlstor
