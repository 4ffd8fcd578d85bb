// The persistent medium: byte-accurate sector contents with a persistence
// ledger distinguishing durable bytes (survive power loss) from bytes that
// only exist in a volatile write cache. A sector is written whole, so its
// durable contents are always one complete write: a power cut mid-request
// lands a prefix of the request's sectors (SimBlockDevice), never part of
// one sector.
//
// Sparse: unwritten sectors read as zeros. The ledger groups sectors into
// aligned 16-sector extents, one map entry each holding a presence mask and
// the sector's slot in the image's arena; an extent exists only once one of
// its sectors has been written, and multi-sector calls do one map lookup per
// extent they touch. The arena stores each sector's bytes once, in a 512-byte
// slot carved from fixed 256 KiB chunks and recycled through a free list. A
// written all-zero sector is present (and so cached or durable) but owns no
// slot: slot 0 stands for it. Hardening moves a slot from the cache to the
// medium without copying; an overwrite, a dropped cache sector and a
// replaced window give their slots back to the free list.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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

  // Sector bytes the image holds, cached and durable: one kSectorSize slot
  // per present sector that is not all zeros.
  uint64_t stored_bytes() const { return live_slots_ * kSectorSize; }

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
  static constexpr uint32_t kChunkSlots = 512;  // 256 KiB of sectors a chunk

  struct Extent {
    uint16_t present = 0;  // bit i: sector i of the extent holds contents
    // Sector i's arena slot; 0 if it is absent or all zeros.
    std::array<uint32_t, kExtentSectors> slot{};
  };
  using ExtentMap = std::unordered_map<uint64_t, Extent>;

  static uint16_t Bit(uint64_t sector) {
    return static_cast<uint16_t>(1u << (sector % kExtentSectors));
  }
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
  void DropCached(ExtentMap::iterator it, uint16_t bits);
  // The extents of `map` holding a sector of [first, first + count),
  // ascending.
  static std::vector<uint64_t> ExtentsIn(const ExtentMap& map,
                                         uint64_t first, uint64_t count);
  // The sectors of extent `index` that lie in [first, first + count).
  static uint16_t WindowBits(uint64_t index, uint64_t first, uint64_t count);

  // Arena. Stores `bytes` (one sector) in `slot`, reusing the slot it
  // holds; an all-zero sector frees it instead.
  void Store(uint32_t& slot, std::span<const uint8_t> bytes);
  // Copies the sector in `slot` to `out`; slot 0 reads as zeros.
  void Load(uint32_t slot, std::span<uint8_t> out) const;
  // Returns `slot` to the free list (slot 0 owns nothing) and zeroes it.
  void FreeSlot(uint32_t& slot);
  std::span<uint8_t> SlotBytes(uint32_t slot) const;

  void CheckRange(uint64_t sector) const;
  // Checks that `bytes` from `sector` on lie in the image; returns the
  // number of sectors.
  uint64_t CheckRange(uint64_t sector, size_t bytes) const;

  uint64_t sector_count_;
  ExtentMap durable_;
  ExtentMap cache_;
  // Recycles the cache's map nodes: the write-back cache empties and
  // refills its extents constantly.
  rlsim::NodePool<ExtentMap> cache_nodes_{kMaxSpareCacheExtents};
  size_t cached_sectors_ = 0;
  // Slot s is sector bytes [s % kChunkSlots * kSectorSize, ...) of chunk
  // s / kChunkSlots; slot 0 is never handed out.
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  std::vector<uint32_t> free_slots_;  // popped from the back
  uint64_t live_slots_ = 0;
};

}  // namespace rlstor
