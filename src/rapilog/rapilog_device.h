// RapiLog: the paper's contribution.
//
// A RapiLogDevice is a virtual disk for a DBMS log partition, implemented in
// the trusted layer (outside the guest OS). It acknowledges writes as soon
// as they are buffered in trusted memory and drains them to the physical
// disk asynchronously, in order, with forced-unit-access writes. The
// acknowledged data is durable-equivalent because the only two ways volatile
// trusted memory can die are covered:
//
//   * guest OS / DBMS crash — the buffer lives below the guest, keeps
//     draining, and everything reaches the disk ("eventual durability");
//   * power failure — the PowerGuard sizes the buffer so that it can always
//     be flushed within the PSU hold-up window that follows the power-fail
//     warning, and performs that emergency flush.
//
// The trusted layer itself not crashing is the verification assumption the
// paper's title refers to (modelled here by construction: RapiLog and the
// kernel under it are exempt from fault injection).
//
// The device is intended for WAL-style partitions: write absorption assumes
// the guest only ever rewrites the *tail* block of its append stream, which
// is exactly what group-committing WAL implementations do.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/power/power.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"

namespace rapilog {

struct RapiLogOptions {
  // Worst-case sustained rate at which the drain can push buffered data to
  // the physical disk (used only for the admission budget; the real rate is
  // whatever the device model yields).
  double worst_case_drain_mbps = 40.0;
  // Overrides the power-derived budget when non-zero (testing/ablation).
  uint64_t max_buffer_bytes_override = 0;
  // Ablation switch: with the guard disabled the device ignores the
  // power-fail warning, so a power cut can destroy buffered data — this is
  // the "async commit without RapiLog" failure mode.
  bool enable_power_guard = true;
  // Budget reserve for getting the emergency drain started: one in-flight
  // guest request plus the drain's own worst-case seek+rotation must fit in
  // the hold-up window before any buffered byte moves.
  rlsim::Duration drain_start_reserve = rlsim::Duration::Millis(20);
};

class RapiLogDevice : public rlstor::BlockDevice, public rlpow::PowerSink {
 public:
  struct Stats {
    rlsim::Counter acked_writes;
    rlsim::Counter absorbed_writes;  // tail-block rewrites merged in place
    rlsim::Counter drained_writes;
    rlsim::Counter drained_bytes;
    rlsim::Counter flush_calls;
    rlsim::Counter emergency_flushes;
    rlsim::Counter lost_bytes;  // buffered bytes destroyed by a power cut
    rlsim::Histogram ack_latency;       // ns
    rlsim::Histogram buffer_occupancy;  // bytes, sampled at each ack
  };

  // Registers itself with `psu`. `log_disk` must outlive the device.
  RapiLogDevice(rlsim::Simulator& sim, rlpow::PowerSupply& psu,
                rlstor::BlockDevice& log_disk, RapiLogOptions options);

  // --- rlstor::BlockDevice ---------------------------------------------------

  const rlstor::Geometry& geometry() const override {
    return log_disk_.geometry();
  }

  // Buffered-ack write: returns once the data sits in trusted memory (or
  // blocks while the admission budget is exhausted). `fua` is accepted and
  // ignored — buffered data already carries the durability contract.
  rlsim::Task<rlstor::BlockStatus> Write(uint64_t lba,
                                         std::span<const uint8_t> data,
                                         bool fua) override;

  // The point of the paper: a log-disk flush costs next to nothing.
  rlsim::Task<rlstor::BlockStatus> Flush() override;
  // The hold-up guarantee covers the buffer, so nothing acknowledged is
  // volatile: a guest that probed this sends no flush at all.
  bool volatile_write_cache() const override { return false; }

  // Read-your-writes: newest buffered contents shadow the disk.
  rlsim::Task<rlstor::BlockStatus> Read(uint64_t lba,
                                        std::span<uint8_t> out) override;

  // --- rlpow::PowerSink ------------------------------------------------------

  void OnPowerFailWarning(rlsim::Duration time_remaining) override;
  void OnPowerDown() override;
  void OnPowerRestore() override;
  void OnOutageAbsorbed() override;

  // --- RapiLog-specific ------------------------------------------------------

  // Completes once every acknowledged write has reached the physical disk.
  // Recovery runs after this ("eventual durability" realised).
  rlsim::Task<void> Quiesce();

  uint64_t buffered_bytes() const { return buffered_bytes_; }
  uint64_t max_buffer_bytes() const { return max_buffer_bytes_; }
  bool emergency() const { return emergency_; }
  // True iff a power cut ever destroyed acknowledged-but-unwritten data
  // (impossible with the guard enabled and an honest budget).
  bool lost_data() const { return stats_.lost_bytes.value() > 0; }

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  struct Entry {
    uint64_t lba = 0;
    // Absorption generation: a fresh stamp each time a write lands in the
    // entry, so the drain can tell whether it still holds what was written.
    // Stamps increase along the FIFO.
    uint64_t stamp = 0;
    // When the entry was first buffered (the residency bound runs from here).
    rlsim::TimePoint buffered_at;
    std::vector<uint8_t> data;
  };

  struct LingerAwaiter;

  rlsim::Task<void> DrainLoop();
  // True when the whole backlog should drain now, without lingering.
  bool DrainRequested() const {
    return emergency_ || quiescers_ > 0 ||
           buffered_bytes_ >= max_buffer_bytes_ / 2;
  }
  // Ends a linger in progress (from the event loop, not inline).
  void CutLinger();
  // Resumes the lingering drain if linger `gen` is still the current one.
  void EndLinger(uint64_t gen);
  uint64_t ComputeBudget(const rlpow::PowerSupply& psu) const;

  rlsim::Simulator& sim_;
  rlstor::BlockDevice& log_disk_;
  RapiLogOptions options_;
  uint64_t max_buffer_bytes_;

  std::deque<Entry> fifo_;
  // The drain run being written: its entries gathered into one buffer that
  // is reused run after run. Only the drain touches it.
  std::vector<uint8_t> staging_;
  uint64_t buffered_bytes_ = 0;
  uint64_t last_stamp_ = 0;
  int quiescers_ = 0;  // Quiesce() calls waiting for an empty buffer
  bool emergency_ = false;
  bool powered_ = true;
  // The drain while it lingers, and the generation of that linger (a timer
  // from a linger that was already ended must not end a later one).
  std::coroutine_handle<> lingering_;
  uint64_t linger_gen_ = 0;

  rlsim::WaitQueue drain_wake_;
  rlsim::WaitQueue space_available_;
  rlsim::WaitQueue drained_;

  Stats stats_;
};

}  // namespace rapilog
