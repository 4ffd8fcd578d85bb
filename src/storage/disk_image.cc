#include "src/storage/disk_image.h"

#include <algorithm>
#include <cstring>

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
  const auto it = map.find(sector / kExtentSectors);
  if (it == map.end() || (it->second.present & Bit(sector)) == 0) {
    return nullptr;
  }
  return &it->second;
}

void DiskImage::PutDurable(uint64_t sector, std::span<const uint8_t> data) {
  Extent& e = durable_[sector / kExtentSectors];
  const auto bytes = SectorBytes(e, sector);
  std::copy(data.begin(), data.end(), bytes.begin());
  e.present |= Bit(sector);
  e.torn &= static_cast<uint16_t>(~Bit(sector));
}

void DiskImage::DropCached(uint64_t sector) {
  const auto it = cache_.find(sector / kExtentSectors);
  if (it == cache_.end() || (it->second.present & Bit(sector)) == 0) {
    return;
  }
  it->second.present &= static_cast<uint16_t>(~Bit(sector));
  --cached_sectors_;
  if (it->second.present == 0) {
    cache_.erase(it);
  }
}

void DiskImage::Read(uint64_t sector, std::span<uint8_t> out) const {
  CheckRange(sector);
  RL_CHECK(out.size() == kSectorSize);
  if (const Extent* e = Find(cache_, sector)) {
    const auto bytes = SectorBytes(*e, sector);
    std::copy(bytes.begin(), bytes.end(), out.begin());
    return;
  }
  ReadDurable(sector, out);
}

void DiskImage::ReadDurable(uint64_t sector, std::span<uint8_t> out) const {
  CheckRange(sector);
  RL_CHECK(out.size() == kSectorSize);
  if (const Extent* e = Find(durable_, sector)) {
    const auto bytes = SectorBytes(*e, sector);
    std::copy(bytes.begin(), bytes.end(), out.begin());
  } else {
    std::fill(out.begin(), out.end(), uint8_t{0});
  }
}

void DiskImage::WriteCached(uint64_t sector, std::span<const uint8_t> data) {
  CheckRange(sector);
  RL_CHECK(data.size() == kSectorSize);
  Extent& e = cache_[sector / kExtentSectors];
  const auto bytes = SectorBytes(e, sector);
  std::copy(data.begin(), data.end(), bytes.begin());
  if ((e.present & Bit(sector)) == 0) {
    e.present |= Bit(sector);
    ++cached_sectors_;
  }
  if (const auto it = durable_.find(sector / kExtentSectors);
      it != durable_.end()) {
    it->second.torn &= static_cast<uint16_t>(~Bit(sector));
  }
}

void DiskImage::WriteDurable(uint64_t sector, std::span<const uint8_t> data) {
  CheckRange(sector);
  RL_CHECK(data.size() == kSectorSize);
  PutDurable(sector, data);
  DropCached(sector);  // the medium now holds the newest contents
}

void DiskImage::Harden(uint64_t sector) {
  const Extent* e = Find(cache_, sector);
  if (e == nullptr) {
    return;
  }
  PutDurable(sector, SectorBytes(*e, sector));
  DropCached(sector);
}

void DiskImage::HardenAll() {
  // simlint: ordered-ok (pure state fold: every cached sector moves to the
  // durable map; no I/O, no events, and the result is order-independent)
  for (const auto& [index, e] : cache_) {
    for (uint64_t i = 0; i < kExtentSectors; ++i) {
      const uint64_t sector = index * kExtentSectors + i;
      if ((e.present & Bit(sector)) != 0) {
        PutDurable(sector, SectorBytes(e, sector));
      }
    }
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
  // simlint: ordered-ok (collected set is sorted before it is used)
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
