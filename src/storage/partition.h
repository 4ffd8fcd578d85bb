// A partition: a contiguous LBA window onto a parent device. Lets the data
// area and the log area share one physical spindle (the paper's
// "shared disk" configuration) while upper layers keep independent devices.
#pragma once

#include "src/storage/block_device.h"

namespace rlstor {

class PartitionDevice : public BlockDevice {
 public:
  PartitionDevice(BlockDevice& parent, uint64_t first_lba,
                  uint64_t sector_count)
      : parent_(parent),
        first_lba_(first_lba),
        geometry_{.sector_count = sector_count} {
    RL_CHECK(first_lba + sector_count <= parent.geometry().sector_count);
  }

  const Geometry& geometry() const override { return geometry_; }

  rlsim::Task<BlockStatus> Read(uint64_t lba,
                                std::span<uint8_t> out) override {
    if (!RangeOk(geometry_, lba, out.size())) {
      co_return BlockStatus::kOutOfRange;
    }
    co_return co_await parent_.Read(first_lba_ + lba, out);
  }

  rlsim::Task<BlockStatus> Write(uint64_t lba, std::span<const uint8_t> data,
                                 bool fua) override {
    if (!RangeOk(geometry_, lba, data.size())) {
      co_return BlockStatus::kOutOfRange;
    }
    co_return co_await parent_.Write(first_lba_ + lba, data, fua);
  }

  rlsim::Task<BlockStatus> Flush() override {
    co_return co_await parent_.Flush();
  }

  bool volatile_write_cache() const override {
    return parent_.volatile_write_cache();
  }

  void EnterEmergencyMode() override { parent_.EnterEmergencyMode(); }

 private:
  BlockDevice& parent_;
  uint64_t first_lba_;
  Geometry geometry_;
};

}  // namespace rlstor
