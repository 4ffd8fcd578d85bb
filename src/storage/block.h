// Basic block-layer types shared by all storage models.
#pragma once

#include <cstdint>
#include <span>
#include <string>

namespace rlstor {

inline constexpr uint32_t kSectorSize = 512;

// Result of a block operation.
enum class BlockStatus {
  kOk,
  kDeviceOff,    // device lost power (or was never powered)
  kOutOfRange,   // sector range exceeds device capacity
  kTornWrite,    // write was interrupted by power loss mid-transfer
  kIoError,      // medium error (fault injection); request may be partial
};

std::string ToString(BlockStatus s);

struct Geometry {
  uint64_t sector_count = 0;
  uint32_t sector_size = kSectorSize;
};

// Whether a request of `bytes` at `lba` is a positive whole number of
// sectors lying entirely on a device of geometry `g`.
inline bool RangeOk(const Geometry& g, uint64_t lba, uint64_t bytes) {
  if (bytes == 0 || bytes % kSectorSize != 0) {
    return false;
  }
  return lba < g.sector_count && bytes / kSectorSize <= g.sector_count - lba;
}

// How durable is a completed, acknowledged write?
enum class WriteCachePolicy {
  // Writes land in the device's volatile cache and are acknowledged
  // immediately; they are lost on power failure unless flushed.
  kWriteBack,
  // Battery-backed write-back (RAID controller with BBWC): writes are
  // acknowledged at cache speed and are already durable (the battery
  // preserves the cache across power loss); destaging to the medium only
  // matters for sustained-throughput back-pressure.
  kBatteryBackedWriteBack,
};

}  // namespace rlstor
