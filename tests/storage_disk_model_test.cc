#include "src/storage/disk_model.h"

#include <gtest/gtest.h>

#include "src/storage/block.h"

namespace rlstor {
namespace {

using rlsim::Duration;
using rlsim::TimePoint;

TEST(HddModelTest, RotationPeriod7200Rpm) {
  EXPECT_NEAR(HddModel::kRotationPeriod.ToMillisF(), 8.333, 0.01);
}

TEST(HddModelTest, RandomAccessCostsSeekPlusRotation) {
  HddModel hdd;
  // A far seek from cylinder 0.
  const uint64_t far_lba = 50'000ull * 2048ull;
  const Duration t = hdd.ReadTime(TimePoint::Origin(), far_lba, 16);
  // At least several milliseconds (seek dominates), below the sum of maxima.
  EXPECT_GT(t, Duration::Millis(5));
  EXPECT_LT(t, Duration::Millis(30));
}

TEST(HddModelTest, BackToBackSequentialIsFast) {
  HddModel hdd;
  TimePoint now = TimePoint::Origin();
  // Position the head with an initial access.
  now += hdd.WriteTime(now, 1000, 16);
  // Immediately write the next contiguous 16 sectors: platter is right at
  // them, so latency is essentially transfer only.
  const Duration t = hdd.WriteTime(now, 1016, 16);
  const Duration transfer_only = HddModel::kRotationPeriod * (16.0 / 2048.0);
  EXPECT_LT(t, transfer_only + Duration::Micros(200));
}

TEST(HddModelTest, PacedSequentialWritesPayNearlyFullRotation) {
  HddModel hdd;
  TimePoint now = TimePoint::Origin();
  now += hdd.WriteTime(now, 1000, 16);
  // Let a fraction of a rotation pass (think time between commits), then
  // write the next block: the platter has moved past it, so the write waits
  // most of a revolution.
  now += Duration::Micros(500);
  const Duration t = hdd.WriteTime(now, 1016, 16);
  const Duration rotation = HddModel::kRotationPeriod;
  EXPECT_GT(t, rotation * 0.8);
  EXPECT_LT(t, rotation * 1.2);
}

TEST(HddModelTest, SeekTimeMonotonicInDistance) {
  HddModel hdd;
  TimePoint now = TimePoint::Origin();
  hdd.ReadTime(now, 0, 1);  // park at cylinder 0
  HddModel hdd2;
  hdd2.ReadTime(now, 0, 1);
  const Duration near = hdd.ReadTime(now, 100ull * 2048ull, 1);
  const Duration far = hdd2.ReadTime(now, 90'000ull * 2048ull, 1);
  // Compare seek components by stripping identical max rotational bounds:
  // a far seek's upper bound exceeds a near seek's upper bound.
  EXPECT_GT(far + HddModel::kRotationPeriod, near);
}

TEST(HddModelTest, CacheTransferIsMicroseconds) {
  HddModel hdd;
  const Duration t = hdd.CacheTransferTime(16);  // 8 KiB
  EXPECT_LT(t, Duration::Micros(200));
  EXPECT_GT(t, Duration::Zero());
}

TEST(HddModelTest, TransferScalesWithLength) {
  HddModel a;
  HddModel b;
  TimePoint now = TimePoint::Origin();
  a.WriteTime(now, 0, 1);
  b.WriteTime(now, 0, 1);
  // Continue sequentially so rotational wait is ~zero; length dominates.
  const Duration t_short = a.WriteTime(now + Duration::Millis(100), 2048, 16);
  const Duration t_long = b.WriteTime(now + Duration::Millis(100), 2048, 1024);
  EXPECT_GT(t_long, t_short);
}

TEST(SsdModelTest, NoPositionDependence) {
  SsdModel ssd;
  const TimePoint now = TimePoint::Origin();
  const Duration a = ssd.ReadTime(now, 0, 16);
  const Duration b = ssd.ReadTime(now, 1'000'000, 16);
  EXPECT_EQ(a.nanos(), b.nanos());
}

TEST(SsdModelTest, WriteSlowerThanRead) {
  SsdModel ssd;
  const TimePoint now = TimePoint::Origin();
  EXPECT_GT(ssd.WriteTime(now, 0, 16), ssd.ReadTime(now, 0, 16));
}

TEST(SsdModelTest, OrdersOfMagnitudeFasterThanHddRandom) {
  SsdModel ssd;
  HddModel hdd;
  const TimePoint now = TimePoint::Origin();
  const Duration ssd_t = ssd.WriteTime(now, 12345678, 16);
  const Duration hdd_t = hdd.WriteTime(now, 12345678ull * 100, 16);
  EXPECT_LT(ssd_t * 10, hdd_t);
}

TEST(FactoryTest, DefaultsConstruct) {
  EXPECT_EQ(MakeDefaultHdd()->name(), "hdd");
  EXPECT_EQ(MakeDefaultSsd()->name(), "ssd");
}

}  // namespace
}  // namespace rlstor
