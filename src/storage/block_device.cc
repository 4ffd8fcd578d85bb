#include "src/storage/block_device.h"

#include <algorithm>
#include <utility>

#include "src/sim/bytes.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"

namespace rlstor {

using rlsim::Duration;
using rlsim::Task;
using rlsim::TimePoint;

namespace {

// Longest contiguous run destaged as one medium write.
constexpr uint32_t kMaxDestageRun = 256;
// Volatile write cache size; a cached write waits for room.
constexpr uint64_t kCacheCapacitySectors = 32ull * 1024 * 1024 / kSectorSize;

// Payload digest for trace events: CRC-32C of the data bytes, seeded with a
// CRC of the LBA so the same contents at different addresses differ.
uint32_t TraceCrc(uint64_t lba, std::span<const uint8_t> data) {
  uint8_t lba_bytes[8];
  rlsim::StoreScalar<uint64_t>(lba_bytes, 0, lba);
  return rlsim::Crc32c(data, rlsim::Crc32c(lba_bytes));
}

uint32_t TraceCrc(uint64_t a, uint64_t b) {
  uint8_t bytes[16];
  rlsim::StoreScalar<uint64_t>(bytes, 0, a);
  rlsim::StoreScalar<uint64_t>(bytes, 8, b);
  return rlsim::Crc32c(bytes);
}

}  // namespace

SimBlockDevice::SimBlockDevice(rlsim::Simulator& sim, Options options,
                               std::unique_ptr<DiskModel> model)
    : sim_(sim),
      options_(std::move(options)),
      model_(std::move(model)),
      image_(options_.geometry.sector_count),
      actuator_(sim),
      destage_wake_(sim),
      space_available_(sim),
      flush_done_(sim) {
  RL_CHECK(model_ != nullptr);
  RL_CHECK(options_.geometry.sector_size == kSectorSize);
  sim_.Spawn(DestageLoop(), options_.name + "-destage");
}

bool SimBlockDevice::DirtySet::Contains(uint64_t lba) const {
  const auto it = extents_.find(lba / kExtentSectors);
  return it != extents_.end() &&
         (it->second.mask >> (lba % kExtentSectors) & 1u) != 0;
}

bool SimBlockDevice::DirtySet::Live(uint64_t lba, uint64_t seq) const {
  const auto it = extents_.find(lba / kExtentSectors);
  return it != extents_.end() &&
         (it->second.mask >> (lba % kExtentSectors) & 1u) != 0 &&
         it->second.seq[lba % kExtentSectors] == seq;
}

void SimBlockDevice::DirtySet::Mark(
    uint64_t lba, uint32_t sectors, uint64_t& next_seq,
    std::deque<std::pair<uint64_t, uint64_t>>& fifo) {
  const uint64_t end = lba + sectors;
  for (uint64_t s = lba; s < end;) {
    const uint64_t index = s / kExtentSectors;
    Extent& e = nodes_.TryEmplace(extents_, index, [](Extent& spare) {
                        spare.mask = 0;
                      }).first->second;
    for (; s < std::min(end, (index + 1) * kExtentSectors); ++s) {
      const uint16_t bit = static_cast<uint16_t>(1u << (s % kExtentSectors));
      if ((e.mask & bit) == 0) {
        e.mask |= bit;
        e.seq[s % kExtentSectors] = next_seq;
        fifo.emplace_back(s, next_seq++);
        ++count_;
      }
    }
  }
}

uint32_t SimBlockDevice::DirtySet::TakeRun(uint64_t lba, uint32_t max) {
  uint32_t run = 0;
  while (run < max) {
    const auto it = extents_.find((lba + run) / kExtentSectors);
    if (it == extents_.end()) {
      break;
    }
    Extent& e = it->second;
    const uint32_t before = run;
    for (uint64_t i = (lba + run) % kExtentSectors;
         i < kExtentSectors && run < max && (e.mask >> i & 1u) != 0; ++i) {
      e.mask &= static_cast<uint16_t>(~(1u << i));
      ++run;
    }
    count_ -= run - before;
    if (e.mask == 0) {
      nodes_.Erase(extents_, it);
    }
    if (run == before || (lba + run) % kExtentSectors != 0) {
      break;  // the run ended inside this extent
    }
  }
  return run;
}

void SimBlockDevice::DirtySet::Clear() {
  extents_.clear();
  count_ = 0;
}

Task<BlockStatus> SimBlockDevice::Read(uint64_t lba, std::span<uint8_t> out) {
  if (!RangeOk(options_.geometry, lba, out.size())) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  const TimePoint start = sim_.now();
  rlsim::SpanScope span(sim_, options_.name, "io-read",
                        static_cast<int64_t>(lba));
  const uint32_t sectors = static_cast<uint32_t>(out.size() / kSectorSize);

  bool all_cached = true;
  for (uint32_t i = 0; i < sectors && all_cached; ++i) {
    all_cached = dirty_.Contains(lba + i);
  }

  if (all_cached) {
    co_await sim_.Sleep(model_->CacheTransferTime(sectors));
  } else {
    if (emergency_mode_) {
      stats_.failed_requests.Add();
      co_return BlockStatus::kDeviceOff;
    }
    auto guard = co_await actuator_.Lock();
    if (!powered_ || emergency_mode_) {
      stats_.failed_requests.Add();
      co_return BlockStatus::kDeviceOff;
    }
    co_await sim_.Sleep(model_->ReadTime(sim_.now(), lba, sectors));
  }
  if (!powered_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  image_.Read(lba, out);
  stats_.reads.Add();
  stats_.read_latency.RecordDuration(sim_.now() - start);
  co_return BlockStatus::kOk;
}

Task<BlockStatus> SimBlockDevice::Write(uint64_t lba,
                                        std::span<const uint8_t> data,
                                        bool fua) {
  if (!RangeOk(options_.geometry, lba, data.size())) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  if (emergency_mode_ && !fua) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  if (write_faults_pending_ > 0) {
    --write_faults_pending_;
    const uint32_t sectors = static_cast<uint32_t>(data.size() / kSectorSize);
    co_await sim_.Sleep(model_->CacheTransferTime(sectors));
    // Like a power cut mid-request: a sector prefix lands durably (sector
    // writes are atomic, so a single-sector request applies nothing).
    const uint32_t applied = sectors / 2;
    if (applied > 0) {
      image_.WriteDurable(lba, data.first(applied * kSectorSize));
    }
    stats_.failed_requests.Add();
    if (sim_.tracer() != nullptr) {
      sim_.EmitTrace(options_.name, "torn-write", TraceCrc(lba, applied));
    }
    co_return BlockStatus::kIoError;
  }
  const TimePoint start = sim_.now();
  rlsim::SpanScope span(sim_, options_.name, "io-write",
                        static_cast<int64_t>(lba));
  BlockStatus status;
  if (fua) {
    status = co_await WriteThroughPath(lba, data, fua);
  } else {
    status = co_await CachedPath(lba, data);
  }
  span.set_end_arg(static_cast<int64_t>(status));
  if (status == BlockStatus::kOk) {
    stats_.writes.Add();
    stats_.write_latency.RecordDuration(sim_.now() - start);
  } else {
    stats_.failed_requests.Add();
  }
  co_return status;
}

Task<BlockStatus> SimBlockDevice::WriteThroughPath(
    uint64_t lba, std::span<const uint8_t> data, bool fua) {
  const uint32_t sectors = static_cast<uint32_t>(data.size() / kSectorSize);
  auto guard = co_await actuator_.Lock();
  if (!powered_ || (emergency_mode_ && !fua)) {
    // Sealed for the emergency flush: a queued non-FUA request abandons the
    // actuator immediately instead of costing a mechanical access.
    co_return BlockStatus::kDeviceOff;
  }
  const Duration latency = model_->WriteTime(sim_.now(), lba, sectors);
  inflight_medium_write_ =
      InflightWrite{.lba = lba, .sectors = sectors, .data = data};
  co_await sim_.Sleep(latency);
  inflight_medium_write_.reset();
  if (!powered_) {
    // Power was cut mid-write; PowerLoss() applied a sector prefix.
    co_return BlockStatus::kTornWrite;
  }
  image_.WriteDurable(lba, data);
  if (sim_.tracer() != nullptr) {
    sim_.EmitTrace(options_.name, "medium-write", TraceCrc(lba, data));
  }
  co_return BlockStatus::kOk;
}

Task<BlockStatus> SimBlockDevice::CachedPath(uint64_t lba,
                                             std::span<const uint8_t> data) {
  const uint32_t sectors = static_cast<uint32_t>(data.size() / kSectorSize);
  while (powered_ && dirty_.size() + sectors > kCacheCapacitySectors) {
    co_await space_available_.Wait();
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  co_await sim_.Sleep(model_->CacheTransferTime(sectors));
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  if (options_.cache_policy == WriteCachePolicy::kBatteryBackedWriteBack) {
    // Battery preserves the cache across power loss: durable on ack.
    image_.WriteDurable(lba, data);
  } else {
    image_.WriteCached(lba, data);
  }
  dirty_.Mark(lba, sectors, next_dirty_seq_, dirty_fifo_);
  destage_wake_.NotifyAll();
  co_return BlockStatus::kOk;
}

Task<BlockStatus> SimBlockDevice::Flush() {
  if (!powered_ || emergency_mode_) {
    stats_.failed_requests.Add();
    co_return BlockStatus::kDeviceOff;
  }
  const TimePoint start = sim_.now();
  rlsim::SpanScope span(sim_, options_.name, "io-flush", 0);
  if (options_.cache_policy == WriteCachePolicy::kWriteBack) {
    while (powered_ && (!dirty_.empty() || destage_active_)) {
      co_await flush_done_.Wait();
    }
    if (!powered_) {
      stats_.failed_requests.Add();
      co_return BlockStatus::kDeviceOff;
    }
  } else {
    // A BBWC cache is already durable.
    co_await sim_.Sleep(model_->CacheTransferTime(1));
  }
  stats_.flushes.Add();
  stats_.flush_latency.RecordDuration(sim_.now() - start);
  co_return BlockStatus::kOk;
}

Task<void> SimBlockDevice::DestageLoop() {
  while (true) {
    if (!powered_ || emergency_mode_ || dirty_.empty()) {
      co_await destage_wake_.Wait();
      continue;
    }
    // Gather a contiguous run starting at the oldest dirty sector, so
    // sequential dirtied regions destage as large medium writes. Sectors
    // a run absorbs leave stale fifo entries behind; skip those first.
    while (!dirty_.Live(dirty_fifo_.front().first,
                        dirty_fifo_.front().second)) {
      dirty_fifo_.pop_front();
    }
    const uint64_t start_lba = dirty_fifo_.front().first;
    dirty_fifo_.pop_front();
    const uint32_t run = dirty_.TakeRun(start_lba, kMaxDestageRun);

    destage_active_ = true;
    {
      auto guard = co_await actuator_.Lock();
      if (powered_ && !emergency_mode_) {
        const Duration latency = model_->WriteTime(sim_.now(), start_lba, run);
        inflight_medium_write_ = InflightWrite{
            .lba = start_lba, .sectors = run, .data = {}, .from_cache = true};
        co_await sim_.Sleep(latency);
        inflight_medium_write_.reset();
        if (powered_) {
          if (options_.cache_policy == WriteCachePolicy::kWriteBack) {
            HardenDestaged(start_lba, run);
          }
          stats_.destaged_sectors.Add(run);
          if (sim_.tracer() != nullptr) {
            sim_.EmitTrace(options_.name, "destage",
                           TraceCrc(start_lba, run));
          }
        }
      }
    }
    destage_active_ = false;
    space_available_.NotifyAll();
    flush_done_.NotifyAll();
  }
}

void SimBlockDevice::HardenDestaged(uint64_t lba, uint32_t count) {
  const uint64_t end = lba + count;
  for (uint64_t s = lba; s < end; ++s) {
    const uint64_t first = s;
    while (s < end && !dirty_.Contains(s)) {
      ++s;
    }
    if (s > first) {
      image_.Harden(first, s - first);
    }
  }
}

void SimBlockDevice::PowerLoss() {
  if (!powered_) {
    return;
  }
  powered_ = false;
  // An interrupted medium write lands a prefix of its sectors (drives write
  // a request front to back and each sector write is atomic). The exact cut
  // point is unknowable; half way is the representative worst case for
  // multi-sector requests, and zero sectors for single-sector ones — so a
  // 512-byte write is all-or-nothing, as real hardware behaves.
  if (inflight_medium_write_.has_value() &&
      options_.cache_policy != WriteCachePolicy::kBatteryBackedWriteBack) {
    const InflightWrite& w = *inflight_medium_write_;
    const uint32_t applied = w.sectors / 2;
    if (applied > 0 && w.from_cache) {
      HardenDestaged(w.lba, applied);
    } else if (applied > 0) {
      image_.WriteDurable(w.lba, w.data.first(applied * kSectorSize));
    }
  }
  if (sim_.tracer() != nullptr) {
    sim_.EmitTrace(options_.name, "power-loss",
                   TraceCrc(image_.cached_sector_count(),
                            inflight_medium_write_.has_value()
                                ? inflight_medium_write_->lba + 1
                                : 0));
  }
  image_.PowerLoss();
  // Unblock everything so waiters observe powered_ == false.
  destage_wake_.NotifyAll();
  space_available_.NotifyAll();
  flush_done_.NotifyAll();
}

void SimBlockDevice::PowerRestore() {
  emergency_mode_ = false;
  write_faults_pending_ = 0;
  if (powered_) {
    return;
  }
  powered_ = true;
  sim_.EmitTrace(options_.name, "power-restore", 0);
  if (options_.cache_policy != WriteCachePolicy::kBatteryBackedWriteBack) {
    // Volatile cache contents were lost; forget the destage backlog.
    dirty_fifo_.clear();
    dirty_.Clear();
  }
  destage_wake_.NotifyAll();
}

}  // namespace rlstor
