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

}  // namespace
}  // namespace rlstor
