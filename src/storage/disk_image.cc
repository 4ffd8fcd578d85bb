#include "src/storage/disk_image.h"

#include <algorithm>
#include <bit>

#include "src/sim/check.h"

namespace rlstor {

namespace {

// Pattern written into a torn sector so corruption is recognisable (and so
// checksum verification in upper layers reliably fails).
constexpr uint8_t kTornFill = 0xDB;

}  // namespace

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

std::span<uint8_t> DiskImage::SectorBytes(Extent& e, uint64_t sector) {
  return std::span<uint8_t>(e.bytes).subspan(
      (sector % kExtentSectors) * kSectorSize, kSectorSize);
}

std::span<const uint8_t> DiskImage::SectorBytes(const Extent& e,
                                                uint64_t sector) {
  return std::span<const uint8_t>(e.bytes).subspan(
      (sector % kExtentSectors) * kSectorSize, kSectorSize);
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

}  // namespace

void DiskImage::DropCached(uint64_t index, uint16_t bits) {
  const auto it = cache_.find(index);
  if (it == cache_.end()) {
    return;
  }
  Extent& e = it->second;
  cached_sectors_ -= static_cast<size_t>(std::popcount(
      static_cast<uint16_t>(e.present & bits)));
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
    for (uint64_t i = 0; i < n; ++i) {
      const uint16_t bit = static_cast<uint16_t>(1u << (first + i));
      const auto dst = out.subspan((done + i) * kSectorSize, kSectorSize);
      const Extent* from = cached != nullptr && (cached->present & bit) != 0
                               ? cached
                           : durable != nullptr && (durable->present & bit) != 0
                               ? durable
                               : nullptr;
      if (from != nullptr) {
        const auto bytes = SectorBytes(*from, first + i);
        std::copy(bytes.begin(), bytes.end(), dst.begin());
      } else {
        std::fill(dst.begin(), dst.end(), uint8_t{0});
      }
    }
  });
}

void DiskImage::ReadDurable(uint64_t sector, std::span<uint8_t> out) const {
  const uint64_t count = CheckRange(sector, out.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    const Extent* durable = FindExtent(durable_, index);
    for (uint64_t i = 0; i < n; ++i) {
      const uint16_t bit = static_cast<uint16_t>(1u << (first + i));
      const auto dst = out.subspan((done + i) * kSectorSize, kSectorSize);
      if (durable != nullptr && (durable->present & bit) != 0) {
        const auto bytes = SectorBytes(*durable, first + i);
        std::copy(bytes.begin(), bytes.end(), dst.begin());
      } else {
        std::fill(dst.begin(), dst.end(), uint8_t{0});
      }
    }
  });
}

void DiskImage::WriteCached(uint64_t sector, std::span<const uint8_t> data) {
  const uint64_t count = CheckRange(sector, data.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    Extent& e = cache_nodes_
                    .TryEmplace(cache_, index,
                                [](Extent& spare) {
                                  spare.present = 0;
                                  spare.torn = 0;
                                })
                    .first->second;
    const auto src = data.subspan(done * kSectorSize, n * kSectorSize);
    std::copy(src.begin(), src.end(), e.bytes.begin() + first * kSectorSize);
    const uint16_t bits = Mask(first, n);
    cached_sectors_ += static_cast<size_t>(
        std::popcount(static_cast<uint16_t>(bits & ~e.present)));
    e.present |= bits;
    if (const auto it = durable_.find(index); it != durable_.end()) {
      it->second.torn &= static_cast<uint16_t>(~bits);
    }
  });
}

void DiskImage::WriteDurable(uint64_t sector, std::span<const uint8_t> data) {
  const uint64_t count = CheckRange(sector, data.size());
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t done) {
    Extent& e = durable_[index];
    const auto src = data.subspan(done * kSectorSize, n * kSectorSize);
    std::copy(src.begin(), src.end(), e.bytes.begin() + first * kSectorSize);
    const uint16_t bits = Mask(first, n);
    e.present |= bits;
    e.torn &= static_cast<uint16_t>(~bits);
    DropCached(index, bits);  // the medium now holds the newest contents
  });
}

void DiskImage::Harden(uint64_t sector, uint64_t count) {
  RL_CHECK(count > 0);
  CheckRange(sector, count * kSectorSize);
  ForEachExtent(sector, count, [&](uint64_t index, uint64_t first,
                                   uint64_t n, uint64_t) {
    const Extent* cached = FindExtent(cache_, index);
    const uint16_t bits =
        cached == nullptr ? 0 : cached->present & Mask(first, n);
    if (bits == 0) {
      return;
    }
    Extent& durable = durable_[index];
    for (uint64_t i = first; i < first + n; ++i) {
      if ((bits >> i & 1u) != 0) {
        const auto src = SectorBytes(*cached, i);
        std::copy(src.begin(), src.end(), SectorBytes(durable, i).begin());
      }
    }
    durable.present |= bits;
    durable.torn &= static_cast<uint16_t>(~bits);
    DropCached(index, bits);
  });
}

void DiskImage::HardenAll() {
  // rapicheck: ordered-ok (pure state fold: every cached extent moves to the
  // durable map; no I/O, no events, and the result is order-independent)
  for (const auto& [index, e] : cache_) {
    Extent& durable = durable_[index];
    for (uint64_t i = 0; i < kExtentSectors; ++i) {
      if ((e.present >> i & 1u) != 0) {
        const auto src = SectorBytes(e, i);
        std::copy(src.begin(), src.end(), SectorBytes(durable, i).begin());
      }
    }
    durable.present |= e.present;
    durable.torn &= static_cast<uint16_t>(~e.present);
  }
  cache_.clear();
  cached_sectors_ = 0;
}

void DiskImage::PowerLoss(int64_t torn_sector) {
  cache_.clear();
  cached_sectors_ = 0;
  if (torn_sector >= 0) {
    const uint64_t sector = static_cast<uint64_t>(torn_sector);
    CheckRange(sector);
    Extent& e = durable_[sector / kExtentSectors];
    const auto bytes = SectorBytes(e, sector);
    std::fill(bytes.begin(), bytes.end(), kTornFill);
    e.present |= Bit(sector);
    e.torn |= Bit(sector);
  }
}

SectorState DiskImage::state(uint64_t sector) const {
  CheckRange(sector);
  if (Find(cache_, sector) != nullptr) {
    return SectorState::kCachedVolatile;
  }
  const Extent* e = Find(durable_, sector);
  if (e == nullptr) {
    return SectorState::kUnwritten;
  }
  return (e->torn & Bit(sector)) != 0 ? SectorState::kTorn
                                      : SectorState::kDurable;
}

bool DiskImage::IsDurable(uint64_t sector) const {
  const SectorState s = state(sector);
  return s == SectorState::kDurable || s == SectorState::kUnwritten;
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
      if (((e.present & ~e.torn) >> i & 1u) != 0) {
        sectors.push_back(index * kExtentSectors + i);
      }
    }
  }
  return sectors;
}

}  // namespace rlstor
