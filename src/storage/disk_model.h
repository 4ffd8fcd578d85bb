// Device timing models.
//
// A DiskModel answers "how long does this medium access take, starting now?"
// and tracks the mechanical state that question depends on (head position,
// platter angle). It is pure timing — data movement lives in DiskImage.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/sim/time.h"

namespace rlstor {

class DiskModel {
 public:
  virtual ~DiskModel() = default;

  // Time to read `sectors` starting at `lba`, beginning at instant `now`.
  // Updates mechanical state as if the access completed.
  virtual rlsim::Duration ReadTime(rlsim::TimePoint now, uint64_t lba,
                                   uint32_t sectors) = 0;

  // Time to write `sectors` at `lba` to the medium, beginning at `now`.
  virtual rlsim::Duration WriteTime(rlsim::TimePoint now, uint64_t lba,
                                    uint32_t sectors) = 0;

  // Time for the device to move data between host and its cache/controller
  // (what a cached write costs before the medium is involved).
  virtual rlsim::Duration CacheTransferTime(uint32_t sectors) const = 0;

  virtual std::string name() const = 0;
};

// Rotating disk. The platter angle is derived from the global clock (the
// spindle never stops), so the model naturally reproduces the two classic
// regimes the paper's results hinge on:
//   * back-to-back sequential writes stream at near media rate, while
//   * paced synchronous commits each wait most of a rotation, capping a
//     log of FUA commits at roughly one commit per revolution.
class HddModel : public DiskModel {
 public:
  // A 7200 rpm spindle.
  static constexpr rlsim::Duration kRotationPeriod =
      rlsim::Duration::Nanos(60ll * 1'000'000'000ll / 7200);

  rlsim::Duration ReadTime(rlsim::TimePoint now, uint64_t lba,
                           uint32_t sectors) override;
  rlsim::Duration WriteTime(rlsim::TimePoint now, uint64_t lba,
                            uint32_t sectors) override;
  rlsim::Duration CacheTransferTime(uint32_t sectors) const override;
  std::string name() const override { return "hdd"; }

 private:
  rlsim::Duration AccessTime(rlsim::TimePoint now, uint64_t lba,
                             uint32_t sectors);
  static rlsim::Duration SeekTime(uint64_t from_cyl, uint64_t to_cyl);
  // Fraction of a revolution [0,1) the platter is at, at instant `t`.
  static double AngleAt(rlsim::TimePoint t);

  uint64_t head_cylinder_ = 0;
  // End of the last medium transfer, for sequential-stream detection.
  uint64_t last_end_lba_ = 0;
  rlsim::TimePoint last_end_time_ = rlsim::TimePoint::Origin();
  bool has_last_access_ = false;
};

// Flash SSD (a paper-era SATA SSD). No mechanical state; writes to
// the medium model the flash program latency.
class SsdModel : public DiskModel {
 public:
  rlsim::Duration ReadTime(rlsim::TimePoint now, uint64_t lba,
                           uint32_t sectors) override;
  rlsim::Duration WriteTime(rlsim::TimePoint now, uint64_t lba,
                            uint32_t sectors) override;
  rlsim::Duration CacheTransferTime(uint32_t sectors) const override;
  std::string name() const override { return "ssd"; }
};

std::unique_ptr<DiskModel> MakeDefaultHdd();
std::unique_ptr<DiskModel> MakeDefaultSsd();

}  // namespace rlstor
