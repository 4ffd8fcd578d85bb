// Simulated block devices.
//
// BlockDevice is the host-facing interface (what an OS block layer sees).
// SimBlockDevice combines a DiskImage (data + persistence ledger) with a
// DiskModel (timing) and a write-cache policy, services requests through a
// single-actuator mutex, destages its cache in the background, and reacts to
// power loss like real hardware: volatile cache dropped, an in-flight medium
// write torn, every later request failing with kDeviceOff.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/sim/node_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/storage/block.h"
#include "src/storage/disk_image.h"
#include "src/storage/disk_model.h"

namespace rlstor {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual const Geometry& geometry() const = 0;

  // out.size() must be a positive multiple of the sector size.
  virtual rlsim::Task<BlockStatus> Read(uint64_t lba,
                                        std::span<uint8_t> out) = 0;

  // data.size() must be a positive multiple of the sector size. With
  // fua=true the write bypasses any volatile cache (durable on completion).
  virtual rlsim::Task<BlockStatus> Write(uint64_t lba,
                                         std::span<const uint8_t> data,
                                         bool fua) = 0;

  // Completes once every previously acknowledged write is durable.
  virtual rlsim::Task<BlockStatus> Flush() = 0;

  // Whether an acknowledged write can sit in volatile state until Flush():
  // the virtio-blk FLUSH feature, or Linux's write-cache queue flag. When
  // false, a write is durable on acknowledgement, Flush() has nothing to do,
  // and a guest driver that probed this answer never sends one.
  virtual bool volatile_write_cache() const = 0;

  // Trusted-layer emergency seal (power failing): the driver discards queued
  // and future requests except forced-unit-access writes, dedicating the
  // device to an emergency flush. Cleared by power restore. No-op by
  // default (only devices owned by a trusted driver support it).
  virtual void EnterEmergencyMode() {}
};

class SimBlockDevice : public BlockDevice {
 public:
  struct Options {
    Geometry geometry{.sector_count = 4 * 1024 * 1024};  // 2 GiB
    WriteCachePolicy cache_policy = WriteCachePolicy::kWriteBack;
    std::string name = "disk";
  };

  struct Stats {
    rlsim::Counter reads;
    rlsim::Counter writes;
    rlsim::Counter flushes;
    rlsim::Counter destaged_sectors;
    rlsim::Counter failed_requests;
    rlsim::Histogram read_latency;   // nanoseconds
    rlsim::Histogram write_latency;  // nanoseconds
    rlsim::Histogram flush_latency;  // nanoseconds
  };

  SimBlockDevice(rlsim::Simulator& sim, Options options,
                 std::unique_ptr<DiskModel> model);

  const Geometry& geometry() const override { return options_.geometry; }

  rlsim::Task<BlockStatus> Read(uint64_t lba,
                                std::span<uint8_t> out) override;
  rlsim::Task<BlockStatus> Write(uint64_t lba, std::span<const uint8_t> data,
                                 bool fua) override;
  rlsim::Task<BlockStatus> Flush() override;
  // A battery-backed cache is durable on acknowledgement.
  bool volatile_write_cache() const override {
    return options_.cache_policy == WriteCachePolicy::kWriteBack;
  }

  // Power events (called by the power substrate or by fault injection).
  void PowerLoss();
  void PowerRestore();
  bool powered() const { return powered_; }

  // Fault injection (chaos testing): the next `count` writes fail with
  // kIoError after durably applying a prefix of their sectors — a torn
  // multi-sector write, exactly the partial-application semantics of a
  // power cut mid-request. Single-sector writes stay all-or-nothing.
  // The pending budget is cleared by PowerRestore (the power cycle is the
  // repair action the storage stack already understands).
  void InjectWriteFaults(uint32_t count) { write_faults_pending_ += count; }

  void EnterEmergencyMode() override { emergency_mode_ = true; }
  void ExitEmergencyMode() { emergency_mode_ = false; }
  bool emergency_mode() const { return emergency_mode_; }

  // For recovery code and durability checkers.
  DiskImage& image() { return image_; }
  const DiskImage& image() const { return image_; }

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }
  const Options& options() const { return options_; }
  uint64_t dirty_sectors() const { return dirty_.size(); }

 private:
  rlsim::Task<void> DestageLoop();
  rlsim::Task<BlockStatus> WriteThroughPath(uint64_t lba,
                                            std::span<const uint8_t> data,
                                            bool fua);
  rlsim::Task<BlockStatus> CachedPath(uint64_t lba,
                                      std::span<const uint8_t> data);
  // Hardens the destaged sectors from `lba` on that no write has dirtied
  // again since the destage took them. A rewritten sector stays cached and
  // dirty until its own destage, and the medium keeps its older contents:
  // the write in flight carries no bytes it may harden in their place.
  void HardenDestaged(uint64_t lba, uint32_t count);

  rlsim::Simulator& sim_;
  Options options_;
  std::unique_ptr<DiskModel> model_;
  DiskImage image_;

  bool powered_ = true;
  // While set, only FUA writes are serviced (see EnterEmergencyMode).
  bool emergency_mode_ = false;
  uint32_t write_faults_pending_ = 0;
  rlsim::SimMutex actuator_;
  // A medium write in flight. Sector writes are atomic (as real drives
  // guarantee); a power cut mid-request applies a prefix of its sectors.
  struct InflightWrite {
    uint64_t lba = 0;
    uint32_t sectors = 0;
    // Data source: either the caller's buffer (write-through path) ...
    std::span<const uint8_t> data;
    // ... or the device's own cache contents (destage path).
    bool from_cache = false;
  };
  std::optional<InflightWrite> inflight_medium_write_;

  // The dirty sectors (cached, not yet on the medium), each with the
  // sequence of its live destage-fifo entry. One map entry per 8 KiB
  // extent, so dirtying a page or taking a destage run costs one lookup per
  // extent instead of a hash node per sector.
  class DirtySet {
   public:
    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool Contains(uint64_t lba) const;
    // Whether `lba` is dirty under fifo entry `seq`.
    bool Live(uint64_t lba, uint64_t seq) const;
    // Marks `sectors` sectors from `lba` on dirty. Each one not dirty yet
    // takes the next sequence and is appended to `fifo`, in LBA order.
    void Mark(uint64_t lba, uint32_t sectors, uint64_t& next_seq,
              std::deque<std::pair<uint64_t, uint64_t>>& fifo);
    // Cleans the run of consecutive dirty sectors from `lba` on, at most
    // `max` long; returns its length (0 if `lba` is clean).
    uint32_t TakeRun(uint64_t lba, uint32_t max);
    void Clear();

   private:
    static constexpr uint64_t kExtentSectors = 16;
    struct Extent {
      uint16_t mask = 0;
      std::array<uint64_t, kExtentSectors> seq{};
    };
    using ExtentMap = std::unordered_map<uint64_t, Extent>;
    ExtentMap extents_;
    rlsim::NodePool<ExtentMap> nodes_{16};  // a destage run's extents
    size_t count_ = 0;
  };

  // Destage order: (lba, sequence) in the order sectors were first dirtied.
  // An entry whose sequence no longer matches its sector's in dirty_ (the
  // sector was destaged as part of another run, and maybe re-dirtied since)
  // is stale and skipped when it reaches the front.
  std::deque<std::pair<uint64_t, uint64_t>> dirty_fifo_;
  DirtySet dirty_;
  uint64_t next_dirty_seq_ = 0;
  bool destage_active_ = false;
  rlsim::WaitQueue destage_wake_;
  rlsim::WaitQueue space_available_;
  rlsim::WaitQueue flush_done_;

  Stats stats_;
};

}  // namespace rlstor
