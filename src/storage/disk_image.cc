#include "src/storage/disk_image.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "src/sim/check.h"

namespace rlstor {

DiskImage::DiskImage(uint64_t sector_count) : sector_count_(sector_count) {
  RL_CHECK(sector_count > 0);
}

void DiskImage::CheckRange(uint64_t sector) const {
  RL_CHECK_MSG(sector < sector_count_,
               "sector " << sector << " beyond capacity " << sector_count_);
}

uint64_t DiskImage::CheckRange(uint64_t sector, size_t bytes) const {
  RL_CHECK(bytes > 0 && bytes % kSectorSize == 0);
  const uint64_t count = bytes / kSectorSize;
  RL_CHECK_MSG(sector < sector_count_ && count <= sector_count_ - sector,
               "sectors " << sector << "+" << count << " beyond capacity "
                          << sector_count_);
  return count;
}

const DiskImage::Extent* DiskImage::Find(const ExtentMap& map,
                                         uint64_t sector) {
  const Extent* e = FindExtent(map, sector / kExtentSectors);
  return e != nullptr && (e->present & Bit(sector)) != 0 ? e : nullptr;
}

const DiskImage::Extent* DiskImage::FindExtent(const ExtentMap& map,
                                               uint64_t index) {
  const auto it = map.find(index);
  return it == map.end() ? nullptr : &it->second;
}

template <typename Fn>
void DiskImage::ForEachExtent(uint64_t sector, uint64_t count, Fn&& fn) {
  for (uint64_t done = 0; done < count;) {
    const uint64_t first = (sector + done) % kExtentSectors;
    const uint64_t n = std::min(kExtentSectors - first, count - done);
    fn((sector + done) / kExtentSectors, first, n, done);
    done += n;
  }
}

namespace {

// Bits [first, first + n) of an extent's sector mask.
uint16_t Mask(uint64_t first, uint64_t n) {
  return static_cast<uint16_t>(((1u << n) - 1) << first);
}

// Whether a sector holds only zeros. Its last word is tested first: a
// sector with contents seldom ends in zeros, so most writes skip the scan.
bool IsZero(std::span<const uint8_t> sector) {
  constexpr size_t kTail = 8;
  uint8_t bits = 0;
  for (const uint8_t b : sector.last(kTail)) {
    bits |= b;
  }
  if (bits != 0) {
    return false;
  }
  for (const uint8_t b : sector.first(kSectorSize - kTail)) {
    bits |= b;
  }
  return bits == 0;
}

}  // namespace

std::span<uint8_t> DiskImage::SlotBytes(uint32_t slot) const {
  return {chunks_[slot / kChunkSlots].get() + slot % kChunkSlots * kSectorSize,
          kSectorSize};
}

void DiskImage::Store(uint32_t& slot, std::span<const uint8_t> bytes) {
  if (IsZero(bytes)) {
    FreeSlot(slot);
    return;
  }
  if (slot == 0) {
    if (free_slots_.empty()) {
      // A new chunk's slots go on the free list lowest on top; slot 0 of the
      // first chunk is never handed out.
      const auto base = static_cast<uint32_t>(chunks_.size() * kChunkSlots);
      chunks_.push_back(
          std::make_unique_for_overwrite<uint8_t[]>(kChunkSlots * kSectorSize));
      for (uint32_t s = base + kChunkSlots; s-- > std::max(base, 1u);) {
        free_slots_.push_back(s);
      }
    }
    slot = free_slots_.back();
    free_slots_.pop_back();
    ++live_slots_;
  }
  std::copy(bytes.begin(), bytes.end(), SlotBytes(slot).begin());
}

void DiskImage::Load(uint32_t slot, std::span<uint8_t> out) const {
  if (slot == 0) {
    std::fill(out.begin(), out.end(), uint8_t{0});
    return;
  }
  const auto bytes = SlotBytes(slot);
  std::copy(bytes.begin(), bytes.end(), out.begin());
}

void DiskImage::FreeSlot(uint32_t& slot) {
  if (slot != 0) {
    free_slots_.push_back(slot);
    --live_slots_;
    slot = 0;
  }
}

void DiskImage::DropCached(uint64_t index, uint16_t bits) {
  if (const auto it = cache_.find(index); it != cache_.end()) {
    DropCached(it, bits);
  }
}

void DiskImage::DropCached(ExtentMap::iterator it, uint16_t bits) {
  Extent& e = it->second;
  const auto dropped = static_cast<uint16_t>(e.present & bits);
  for (uint16_t rest = dropped; rest != 0; rest &= rest - 1) {
    FreeSlot(e.slot[std::countr_zero(rest)]);
  }
  cached_sectors_ -= static_cast<size_t>(std::popcount(dropped));
  e.present &= static_cast<uint16_t>(~bits);
  if (e.present == 0) {
    cache_nodes_.Erase(cache_, it);
  }
}

void DiskImage::Read(uint64_t sector, std::span<uint8_t> out) const {
  const uint64_t count = CheckRange(sector, out.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    const Extent* cached = FindExtent(cache_, index);
    const Extent* durable = FindExtent(durable_, index);
    for (uint64_t i = first; i < first + n; ++i) {
      const uint32_t slot = cached != nullptr && (cached->present >> i & 1u)
                                ? cached->slot[i]
                            : durable != nullptr ? durable->slot[i]
                                                 : 0;
      Load(slot, out.subspan((done + i - first) * kSectorSize, kSectorSize));
    }
  });
}

void DiskImage::ReadDurable(uint64_t sector, std::span<uint8_t> out) const {
  const uint64_t count = CheckRange(sector, out.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    const Extent* durable = FindExtent(durable_, index);
    for (uint64_t i = first; i < first + n; ++i) {
      Load(durable != nullptr ? durable->slot[i] : 0,
           out.subspan((done + i - first) * kSectorSize, kSectorSize));
    }
  });
}

void DiskImage::WriteCached(uint64_t sector, std::span<const uint8_t> data) {
  const uint64_t count = CheckRange(sector, data.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    // A parked node's extent is empty: its slots were freed as it emptied.
    Extent& e =
        cache_nodes_.TryEmplace(cache_, index, [](Extent&) {}).first->second;
    for (uint64_t i = first; i < first + n; ++i) {
      Store(e.slot[i],
            data.subspan((done + i - first) * kSectorSize, kSectorSize));
    }
    const uint16_t bits = Mask(first, n);
    cached_sectors_ += static_cast<size_t>(
        std::popcount(static_cast<uint16_t>(bits & ~e.present)));
    e.present |= bits;
  });
}

void DiskImage::WriteDurable(uint64_t sector, std::span<const uint8_t> data) {
  const uint64_t count = CheckRange(sector, data.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    Extent& e = durable_[index];
    for (uint64_t i = first; i < first + n; ++i) {
      Store(e.slot[i],
            data.subspan((done + i - first) * kSectorSize, kSectorSize));
    }
    const uint16_t bits = Mask(first, n);
    e.present |= bits;
    DropCached(index, bits);  // the medium now holds the newest contents
  });
}

void DiskImage::Harden(uint64_t sector, uint64_t count) {
  RL_CHECK(count > 0);
  CheckRange(sector, count * kSectorSize);
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t) {
    const auto it = cache_.find(index);
    const uint16_t bits =
        it == cache_.end() ? 0 : it->second.present & Mask(first, n);
    if (bits == 0) {
      return;
    }
    Extent& cached = it->second;
    Extent& durable = durable_[index];
    for (uint16_t rest = bits; rest != 0; rest &= rest - 1) {
      const int i = std::countr_zero(rest);
      FreeSlot(durable.slot[i]);
      durable.slot[i] = std::exchange(cached.slot[i], 0);
    }
    durable.present |= bits;
    DropCached(it, bits);  // its slots moved, so it frees none
  });
}

void DiskImage::PowerLoss() {
  // rapicheck: ordered-ok (which free slot a later sector gets is invisible)
  for (auto& [index, e] : cache_) {
    for (uint32_t& slot : e.slot) {
      FreeSlot(slot);
    }
  }
  cache_.clear();
  cached_sectors_ = 0;
}

SectorState DiskImage::state(uint64_t sector) const {
  CheckRange(sector);
  if (Find(cache_, sector) != nullptr) {
    return SectorState::kCachedVolatile;
  }
  return Find(durable_, sector) != nullptr ? SectorState::kDurable
                                           : SectorState::kUnwritten;
}

bool DiskImage::IsDurable(uint64_t sector) const {
  return state(sector) != SectorState::kCachedVolatile;
}

std::vector<uint64_t> DiskImage::DurableSectorList() const {
  std::vector<uint64_t> extents;
  extents.reserve(durable_.size());
  // rapicheck: ordered-ok (collected set is sorted before it is used)
  for (const auto& [index, e] : durable_) {
    extents.push_back(index);
  }
  std::sort(extents.begin(), extents.end());
  std::vector<uint64_t> sectors;
  for (const uint64_t index : extents) {
    const Extent& e = durable_.at(index);
    for (uint64_t i = 0; i < kExtentSectors; ++i) {
      if ((e.present >> i & 1u) != 0) {
        sectors.push_back(index * kExtentSectors + i);
      }
    }
  }
  return sectors;
}

std::vector<uint64_t> DiskImage::ExtentsIn(const ExtentMap& map,
                                           uint64_t first, uint64_t count) {
  std::vector<uint64_t> extents;
  // rapicheck: ordered-ok (collected set is sorted before it is used)
  for (const auto& [index, e] : map) {
    if (WindowBits(index, first, count) != 0) {
      extents.push_back(index);
    }
  }
  std::sort(extents.begin(), extents.end());
  return extents;
}

uint16_t DiskImage::WindowBits(uint64_t index, uint64_t first,
                               uint64_t count) {
  const uint64_t lo = std::max(index * kExtentSectors, first);
  const uint64_t hi = std::min((index + 1) * kExtentSectors, first + count);
  return lo < hi ? Mask(lo % kExtentSectors, hi - lo) : 0;
}

void DiskImage::CopyDurableWindow(const DiskImage& src, uint64_t first,
                                  uint64_t count) {
  RL_CHECK(&src != this && count > 0);
  CheckRange(0, count * kSectorSize);
  src.CheckRange(first, count * kSectorSize);
  for (const uint64_t index : ExtentsIn(cache_, 0, count)) {
    DropCached(index, WindowBits(index, 0, count));
  }
  for (const uint64_t index : ExtentsIn(durable_, 0, count)) {
    Extent& e = durable_.at(index);
    const uint16_t dropped = e.present & WindowBits(index, 0, count);
    for (uint16_t rest = dropped; rest != 0; rest &= rest - 1) {
      FreeSlot(e.slot[std::countr_zero(rest)]);
    }
    e.present &= static_cast<uint16_t>(~dropped);
    if (e.present == 0) {
      durable_.erase(index);
    }
  }
  for (const uint64_t index : ExtentsIn(src.durable_, first, count)) {
    const Extent& from = src.durable_.at(index);
    const uint16_t bits = from.present & WindowBits(index, first, count);
    for (uint16_t rest = bits; rest != 0; rest &= rest - 1) {
      const int i = std::countr_zero(rest);
      const uint64_t sector = index * kExtentSectors + i - first;
      Extent& to = durable_[sector / kExtentSectors];
      if (from.slot[i] != 0) {
        Store(to.slot[sector % kExtentSectors], src.SlotBytes(from.slot[i]));
      }
      to.present |= Bit(sector);
    }
  }
}

}  // namespace rlstor
