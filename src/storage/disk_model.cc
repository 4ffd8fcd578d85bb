#include "src/storage/disk_model.h"

#include <cmath>

#include "src/sim/check.h"
#include "src/storage/block.h"

namespace rlstor {

using rlsim::Duration;
using rlsim::TimePoint;

namespace {

constexpr uint32_t kHddSectorsPerTrack = 2048;  // ~1 MiB per revolution
constexpr uint64_t kHddCylinders = 100'000;
constexpr Duration kHddTrackToTrackSeek = Duration::Micros(500);
constexpr Duration kHddMaxSeek = Duration::Millis(16);
constexpr Duration kHddControllerOverhead = Duration::Micros(30);
// Host <-> drive cache bandwidth (SATA-ish).
constexpr double kHddCacheTransferMbps = 300.0;
// A request that continues exactly where the previous one ended, arriving
// within this window, streams at media rate (drive firmware absorbs the gap
// with track skew and its sector buffer instead of losing a whole
// revolution).
constexpr Duration kHddSequentialSlack = Duration::Micros(200);

constexpr Duration kSsdReadLatency = Duration::Micros(60);
constexpr Duration kSsdProgramLatency = Duration::Micros(250);
constexpr Duration kSsdControllerOverhead = Duration::Micros(15);
constexpr double kSsdTransferMbps = 450.0;

Duration SsdTransferTime(uint32_t sectors) {
  const double bytes = static_cast<double>(sectors) * kSectorSize;
  return Duration::SecondsF(bytes / (kSsdTransferMbps * 1e6));
}

}  // namespace

Duration HddModel::SeekTime(uint64_t from_cyl, uint64_t to_cyl) {
  if (from_cyl == to_cyl) {
    return Duration::Zero();
  }
  const uint64_t dist = from_cyl > to_cyl ? from_cyl - to_cyl : to_cyl - from_cyl;
  const double fraction =
      static_cast<double>(dist) / static_cast<double>(kHddCylinders);
  // Concave seek curve: short seeks dominated by settle time, long seeks by
  // the arm's coast phase (classic sqrt model).
  return kHddTrackToTrackSeek +
         (kHddMaxSeek - kHddTrackToTrackSeek) * std::sqrt(fraction);
}

double HddModel::AngleAt(TimePoint t) {
  const int64_t period = kRotationPeriod.nanos();
  const int64_t phase = t.nanos() % period;
  return static_cast<double>(phase) / static_cast<double>(period);
}

Duration HddModel::AccessTime(TimePoint now, uint64_t lba, uint32_t sectors) {
  RL_CHECK(sectors > 0);
  // Media-rate transfer: the platter must rotate past every sector accessed.
  const Duration transfer =
      kRotationPeriod * (static_cast<double>(sectors) /
                         static_cast<double>(kHddSectorsPerTrack));

  // Sequential stream: continues exactly where the previous access ended and
  // arrives before the drive's skew/buffer slack runs out.
  if (has_last_access_ && lba == last_end_lba_ &&
      now <= last_end_time_ + kHddSequentialSlack) {
    last_end_lba_ = lba + sectors;
    last_end_time_ = now + transfer;
    head_cylinder_ = (last_end_lba_ / kHddSectorsPerTrack) % kHddCylinders;
    return kHddControllerOverhead + transfer;
  }

  const uint64_t cylinder = lba / kHddSectorsPerTrack;
  const double target_angle =
      static_cast<double>(lba % kHddSectorsPerTrack) /
      static_cast<double>(kHddSectorsPerTrack);

  const Duration seek = SeekTime(head_cylinder_, cylinder % kHddCylinders);
  // Controller overhead overlaps with positioning (it is added to the total
  // below but deliberately not to the platter-position computation), so a
  // request that lands exactly behind the previous one streams at media rate
  // instead of missing its sector by the overhead and losing a revolution.
  const TimePoint on_track = now + seek;

  // Wait for the platter to bring the target sector under the head.
  const double angle = AngleAt(on_track);
  double wait_fraction = target_angle - angle;
  if (wait_fraction < 0) {
    // rapicheck: float-ok (single wrap-around adjustment, not an accumulator)
    wait_fraction += 1.0;
  }
  const Duration rotational = kRotationPeriod * wait_fraction;

  head_cylinder_ = ((lba + sectors) / kHddSectorsPerTrack) % kHddCylinders;
  last_end_lba_ = lba + sectors;
  last_end_time_ = on_track + rotational + transfer;
  has_last_access_ = true;
  return kHddControllerOverhead + seek + rotational + transfer;
}

Duration HddModel::ReadTime(TimePoint now, uint64_t lba, uint32_t sectors) {
  return AccessTime(now, lba, sectors);
}

Duration HddModel::WriteTime(TimePoint now, uint64_t lba, uint32_t sectors) {
  return AccessTime(now, lba, sectors);
}

Duration HddModel::CacheTransferTime(uint32_t sectors) const {
  const double bytes = static_cast<double>(sectors) * kSectorSize;
  return kHddControllerOverhead +
         Duration::SecondsF(bytes / (kHddCacheTransferMbps * 1e6));
}

Duration SsdModel::ReadTime(TimePoint /*now*/, uint64_t /*lba*/,
                            uint32_t sectors) {
  return kSsdControllerOverhead + kSsdReadLatency + SsdTransferTime(sectors);
}

Duration SsdModel::WriteTime(TimePoint /*now*/, uint64_t /*lba*/,
                             uint32_t sectors) {
  return kSsdControllerOverhead + kSsdProgramLatency +
         SsdTransferTime(sectors);
}

Duration SsdModel::CacheTransferTime(uint32_t sectors) const {
  return kSsdControllerOverhead + SsdTransferTime(sectors);
}

std::unique_ptr<DiskModel> MakeDefaultHdd() {
  return std::make_unique<HddModel>();
}

std::unique_ptr<DiskModel> MakeDefaultSsd() {
  return std::make_unique<SsdModel>();
}

}  // namespace rlstor
