#include "src/storage/disk_image.h"

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <vector>

#include "src/sim/check.h"

namespace rlstor {
namespace {

using SectorBuf = std::array<uint8_t, kSectorSize>;

SectorBuf Pattern(uint8_t fill) {
  SectorBuf buf;
  buf.fill(fill);
  return buf;
}

TEST(DiskImageTest, UnwrittenReadsZero) {
  DiskImage img(100);
  SectorBuf out = Pattern(0xFF);
  img.Read(5, out);
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(img.state(5), SectorState::kUnwritten);
  EXPECT_TRUE(img.IsDurable(5));
}

TEST(DiskImageTest, CachedWriteReadsBackButNotDurable) {
  DiskImage img(100);
  const SectorBuf data = Pattern(0xAB);
  img.WriteCached(3, data);
  SectorBuf out{};
  img.Read(3, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(img.state(3), SectorState::kCachedVolatile);
  EXPECT_FALSE(img.IsDurable(3));
  // The durable medium still reads as zero.
  img.ReadDurable(3, out);
  EXPECT_EQ(out, Pattern(0));
}

TEST(DiskImageTest, DurableWriteSurvivesPowerLoss) {
  DiskImage img(100);
  const SectorBuf data = Pattern(0xCD);
  img.WriteDurable(7, data);
  img.PowerLoss();
  SectorBuf out{};
  img.Read(7, out);
  EXPECT_EQ(out, data);
  EXPECT_TRUE(img.IsDurable(7));
}

TEST(DiskImageTest, CachedWriteLostOnPowerLoss) {
  DiskImage img(100);
  img.WriteCached(7, Pattern(0xCD));
  img.PowerLoss();
  SectorBuf out{};
  img.Read(7, out);
  EXPECT_EQ(out, Pattern(0));
  EXPECT_EQ(img.state(7), SectorState::kUnwritten);
}

TEST(DiskImageTest, HardenMakesCachedDurable) {
  DiskImage img(100);
  const SectorBuf data = Pattern(0x11);
  img.WriteCached(9, data);
  img.Harden(9);
  EXPECT_EQ(img.state(9), SectorState::kDurable);
  img.PowerLoss();
  SectorBuf out{};
  img.Read(9, out);
  EXPECT_EQ(out, data);
}

TEST(DiskImageTest, HardenOfARangeFlushesEveryCachedSector) {
  DiskImage img(100);
  for (uint64_t s = 0; s < 20; ++s) {
    img.WriteCached(s, Pattern(static_cast<uint8_t>(s)));
  }
  EXPECT_EQ(img.cached_sector_count(), 20u);
  img.Harden(0, 20);
  EXPECT_EQ(img.cached_sector_count(), 0u);
  for (uint64_t s = 0; s < 20; ++s) {
    EXPECT_EQ(img.state(s), SectorState::kDurable);
  }
}

TEST(DiskImageTest, HardenOfNonCachedIsNoOp) {
  DiskImage img(100);
  img.Harden(3);
  EXPECT_EQ(img.state(3), SectorState::kUnwritten);
}

TEST(DiskImageTest, CacheShadowsDurableUntilHardened) {
  DiskImage img(100);
  img.WriteDurable(4, Pattern(0x01));
  img.WriteCached(4, Pattern(0x02));
  SectorBuf out{};
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0x02));  // newest wins
  img.ReadDurable(4, out);
  EXPECT_EQ(out, Pattern(0x01));  // medium still has old version
  img.PowerLoss();
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0x01));  // cached version lost
}

TEST(DiskImageTest, OutOfRangeRejected) {
  DiskImage img(10);
  SectorBuf buf{};
  EXPECT_THROW(img.Read(10, buf), rlsim::CheckFailure);
  EXPECT_THROW(img.WriteDurable(11, buf), rlsim::CheckFailure);
  EXPECT_THROW(img.WriteCached(100, buf), rlsim::CheckFailure);
}

TEST(DiskImageTest, CachedBytesAccounting) {
  DiskImage img(100);
  img.WriteCached(1, Pattern(1));
  img.WriteCached(2, Pattern(2));
  img.WriteCached(1, Pattern(3));  // overwrite, no growth
  EXPECT_EQ(img.cached_sector_count(), 2u);
  EXPECT_EQ(img.cached_bytes(), 2u * kSectorSize);
}

// --- CopyDurableWindow -------------------------------------------------------

TEST(DiskImageTest, DurableWindowDropsCachedOnlySectors) {
  DiskImage src(100);
  src.WriteDurable(40, Pattern(0x01));
  src.WriteCached(41, Pattern(0x02));
  src.WriteCached(40, Pattern(0x03));  // newer, but only in the cache
  DiskImage dst(10);
  dst.CopyDurableWindow(src, 40, 10);
  SectorBuf out{};
  dst.Read(0, out);
  EXPECT_EQ(out, Pattern(0x01));
  EXPECT_EQ(dst.state(1), SectorState::kUnwritten);
  EXPECT_EQ(dst.cached_sector_count(), 0u);
}

TEST(DiskImageTest, DurableWindowIsShiftedToSectorZero) {
  DiskImage src(100);
  // The window [37, 67) straddles extent boundaries on both images.
  for (uint64_t s = 37; s < 67; ++s) {
    src.WriteDurable(s, Pattern(static_cast<uint8_t>(s)));
  }
  DiskImage dst(30);
  dst.CopyDurableWindow(src, 37, 30);
  SectorBuf out{};
  for (uint64_t s = 0; s < 30; ++s) {
    dst.Read(s, out);
    EXPECT_EQ(out, Pattern(static_cast<uint8_t>(37 + s))) << s;
    EXPECT_EQ(dst.state(s), SectorState::kDurable) << s;
  }
}

TEST(DiskImageTest, DurableWindowLeavesOutSectorsOutsideIt) {
  DiskImage src(100);
  src.WriteDurable(39, Pattern(0x39));
  src.WriteDurable(40, Pattern(0x40));
  src.WriteDurable(50, Pattern(0x50));
  DiskImage dst(20);
  dst.CopyDurableWindow(src, 40, 10);
  EXPECT_EQ(dst.DurableSectorList(), std::vector<uint64_t>{0});
  EXPECT_EQ(dst.state(10), SectorState::kUnwritten);
}

TEST(DiskImageTest, DurableWindowReplacesOnlyTheDestinationRange) {
  DiskImage src(100);
  src.WriteDurable(3, Pattern(0xAA));
  DiskImage dst(40);
  dst.WriteDurable(2, Pattern(0x02));   // in [0, 20): replaced
  dst.WriteDurable(5, Pattern(0x05));   // in [0, 20): replaced
  dst.WriteCached(7, Pattern(0x07));    // in [0, 20): dropped
  dst.WriteDurable(20, Pattern(0x20));  // past the window: kept
  dst.WriteCached(21, Pattern(0x21));   // past the window: kept
  dst.CopyDurableWindow(src, 0, 20);
  EXPECT_EQ(dst.DurableSectorList(), (std::vector<uint64_t>{3, 20}));
  EXPECT_EQ(dst.state(5), SectorState::kUnwritten);
  EXPECT_EQ(dst.state(21), SectorState::kCachedVolatile);
  EXPECT_EQ(dst.cached_sector_count(), 1u);
}

TEST(DiskImageTest, DurableWindowMustFitBothImages) {
  DiskImage src(100);
  DiskImage dst(10);
  EXPECT_THROW(dst.CopyDurableWindow(src, 95, 10), rlsim::CheckFailure);
  EXPECT_THROW(dst.CopyDurableWindow(src, 0, 11), rlsim::CheckFailure);
}


// --- All-zero sectors and stored bytes ----------------------------------------

// A sector of zeros with `byte` set to `value`.
SectorBuf ZerosWith(size_t byte, uint8_t value) {
  SectorBuf buf = Pattern(0);
  buf[byte] = value;
  return buf;
}

TEST(DiskImageTest, ZeroSectorIsPresentCachedAndDurable) {
  DiskImage img(100);
  img.WriteCached(3, Pattern(0));
  img.WriteDurable(5, Pattern(0));
  EXPECT_EQ(img.state(3), SectorState::kCachedVolatile);
  EXPECT_FALSE(img.IsDurable(3));
  EXPECT_EQ(img.cached_sector_count(), 1u);
  EXPECT_EQ(img.state(5), SectorState::kDurable);
  EXPECT_EQ(img.DurableSectorList(), std::vector<uint64_t>{5});
  EXPECT_EQ(img.stored_bytes(), 0u);  // zeros own no bytes
  SectorBuf out = Pattern(0xFF);
  img.Read(3, out);
  EXPECT_EQ(out, Pattern(0));
  out = Pattern(0xFF);
  img.ReadDurable(5, out);
  EXPECT_EQ(out, Pattern(0));
  img.Harden(3);
  EXPECT_EQ(img.state(3), SectorState::kDurable);
  img.PowerLoss();
  EXPECT_EQ(img.DurableSectorList(), (std::vector<uint64_t>{3, 5}));
}

TEST(DiskImageTest, ZeroAndNonZeroOverwriteEachOther) {
  DiskImage img(100);
  SectorBuf out{};
  img.WriteDurable(4, Pattern(0x11));
  EXPECT_EQ(img.stored_bytes(), kSectorSize);
  img.WriteDurable(4, Pattern(0));
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0));
  EXPECT_EQ(img.state(4), SectorState::kDurable);
  EXPECT_EQ(img.stored_bytes(), 0u);
  img.WriteDurable(4, Pattern(0x22));
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0x22));
  EXPECT_EQ(img.stored_bytes(), kSectorSize);

  // In the cache, over the durable 0x22.
  img.WriteCached(4, Pattern(0));
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0));
  img.ReadDurable(4, out);
  EXPECT_EQ(out, Pattern(0x22));
  EXPECT_EQ(img.stored_bytes(), kSectorSize);
  img.WriteCached(4, Pattern(0x33));
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0x33));
  EXPECT_EQ(img.stored_bytes(), 2 * kSectorSize);
  img.WriteCached(4, Pattern(0));
  img.Read(4, out);
  EXPECT_EQ(out, Pattern(0));
  EXPECT_EQ(img.stored_bytes(), kSectorSize);

  // One non-zero byte at either end is contents, not zeros.
  for (const uint32_t byte : {0u, kSectorSize - 9, kSectorSize - 1}) {
    img.WriteDurable(6, ZerosWith(byte, 0x80));
    img.Read(6, out);
    EXPECT_EQ(out, ZerosWith(byte, 0x80)) << byte;
  }
}

TEST(DiskImageTest, HardenOfAZeroSectorReplacesDurableContents) {
  DiskImage img(100);
  img.WriteDurable(9, Pattern(0x44));
  img.WriteCached(9, Pattern(0));
  img.Harden(9);
  EXPECT_EQ(img.state(9), SectorState::kDurable);
  EXPECT_EQ(img.stored_bytes(), 0u);
  img.PowerLoss();
  SectorBuf out{};
  img.ReadDurable(9, out);
  EXPECT_EQ(out, Pattern(0));
}

TEST(DiskImageTest, PowerLossAndDurableWindowKeepOnlyDurableBytes) {
  DiskImage img(100);
  img.WriteDurable(1, Pattern(0x01));
  img.WriteDurable(2, Pattern(0));
  img.WriteCached(1, Pattern(0x11));  // shadows a durable sector
  img.WriteCached(20, Pattern(0x20));
  img.WriteCached(21, Pattern(0));
  EXPECT_EQ(img.stored_bytes(), 3 * kSectorSize);
  img.PowerLoss();
  EXPECT_EQ(img.stored_bytes(), kSectorSize);  // sector 1's durable bytes

  DiskImage src(100);
  src.WriteDurable(40, Pattern(0x40));
  src.WriteDurable(41, Pattern(0));
  src.WriteCached(42, Pattern(0x42));
  DiskImage dst(40);
  dst.WriteDurable(0, Pattern(0xA0));   // in the window: replaced
  dst.WriteCached(1, Pattern(0xA1));    // in the window: dropped
  dst.WriteDurable(30, Pattern(0xB0));  // past the window: kept
  dst.CopyDurableWindow(src, 40, 10);
  // Sector 0 (src 40) and sector 30 hold bytes; sector 1 (src 41) is a
  // durable zero sector.
  EXPECT_EQ(dst.stored_bytes(), 2 * kSectorSize);
  EXPECT_EQ(dst.DurableSectorList(), (std::vector<uint64_t>{0, 1, 30}));
  EXPECT_EQ(dst.state(2), SectorState::kUnwritten);
  EXPECT_EQ(src.stored_bytes(), 2 * kSectorSize);  // the source is untouched
}

}  // namespace
}  // namespace rlstor
