#include "src/rapilog/rapilog_device.h"

#include <algorithm>
#include <utility>

#include "src/sim/check.h"

namespace rapilog {

using rlsim::Duration;
using rlsim::Task;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

namespace {

// Fraction of the guaranteed post-warning window the budget may assume.
constexpr double kSafetyFactor = 0.5;
// Buffer insert cost: fixed part plus DRAM copy at ~10 GiB/s.
constexpr Duration kAckBaseCost = Duration::Nanos(500);
// Residency bound: the longest a backlog below half the budget waits for a
// drain run. Below that threshold the drain lingers, so the log disk sees
// one large run per half budget instead of chasing the live tail, and
// tail-block rewrites are absorbed in memory. Crossing the threshold,
// Quiesce() and the power-fail warning all end a linger at once.
constexpr Duration kDrainLinger = Duration::Seconds(1);

}  // namespace

RapiLogDevice::RapiLogDevice(rlsim::Simulator& sim, rlpow::PowerSupply& psu,
                             rlstor::BlockDevice& log_disk,
                             RapiLogOptions options)
    : sim_(sim),
      log_disk_(log_disk),
      options_(options),
      max_buffer_bytes_(ComputeBudget(psu)),
      drain_wake_(sim),
      space_available_(sim),
      drained_(sim) {
  RL_CHECK(max_buffer_bytes_ >= kSectorSize);
  psu.Register(this);
  sim_.Spawn(DrainLoop(), "rapilog-drain");
}

uint64_t RapiLogDevice::ComputeBudget(const rlpow::PowerSupply& psu) const {
  if (options_.max_buffer_bytes_override != 0) {
    return options_.max_buffer_bytes_override;
  }
  const rlsim::Duration usable =
      psu.GuaranteedWindowAfterWarning() - options_.drain_start_reserve;
  if (usable <= rlsim::Duration::Zero()) {
    return kSectorSize;  // degenerate window: effectively synchronous
  }
  const double window_s = usable.ToSecondsF() * kSafetyFactor;
  const double budget = options_.worst_case_drain_mbps * 1e6 * window_s;
  return std::max<uint64_t>(kSectorSize, static_cast<uint64_t>(budget));
}

Task<BlockStatus> RapiLogDevice::Write(uint64_t lba,
                                       std::span<const uint8_t> data,
                                       bool fua) {
  (void)fua;  // buffered data already carries the durability contract
  if (!rlstor::RangeOk(log_disk_.geometry(), lba, data.size())) {
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  const rlsim::TimePoint start = sim_.now();
  // Guest-facing cost of a buffered write: admission wait + ack latency.
  rlsim::SpanScope span(sim_, "rapilog", "buffer-ack",
                        static_cast<int64_t>(data.size()));

  // Tail-block absorption: the WAL rewrites its last partially-filled block;
  // superseding it in place avoids draining every intermediate version.
  if (!fifo_.empty() && fifo_.back().lba == lba &&
      fifo_.back().data.size() == data.size()) {
    fifo_.back().data.assign(data.begin(), data.end());
    fifo_.back().stamp = ++last_stamp_;
    stats_.absorbed_writes.Add();
  } else {
    // Admission control: never hold more than the power budget can flush.
    while (powered_ && !emergency_ &&
           buffered_bytes_ + data.size() > max_buffer_bytes_) {
      co_await space_available_.Wait();
    }
    if (!powered_) {
      co_return BlockStatus::kDeviceOff;
    }
    if (emergency_) {
      // Mains are gone; the guest is living on borrowed time and no new
      // durability promises are made. The writer never gets an ack.
      while (emergency_ && powered_) {
        co_await space_available_.Wait();
      }
      co_return BlockStatus::kDeviceOff;
    }
    Entry& entry = fifo_.emplace_back();
    entry.lba = lba;
    entry.stamp = ++last_stamp_;
    entry.buffered_at = sim_.now();
    entry.data.assign(data.begin(), data.end());
    buffered_bytes_ += entry.data.size();
    drain_wake_.NotifyAll();
    if (DrainRequested()) {
      CutLinger();
    }
  }
  co_await sim_.Sleep(kAckBaseCost +
                      Duration::Nanos(static_cast<int64_t>(data.size() / 10)));
  stats_.acked_writes.Add();
  stats_.ack_latency.RecordDuration(sim_.now() - start);
  stats_.buffer_occupancy.Record(static_cast<int64_t>(buffered_bytes_));
  co_return BlockStatus::kOk;
}

Task<BlockStatus> RapiLogDevice::Flush() {
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  stats_.flush_calls.Add();
  // Everything buffered is already covered by the durability contract; the
  // flush only costs its hypercall handling.
  co_await sim_.Sleep(kAckBaseCost);
  co_return BlockStatus::kOk;
}

Task<BlockStatus> RapiLogDevice::Read(uint64_t lba, std::span<uint8_t> out) {
  if (!rlstor::RangeOk(log_disk_.geometry(), lba, out.size())) {
    co_return BlockStatus::kOutOfRange;
  }
  if (!powered_) {
    co_return BlockStatus::kDeviceOff;
  }
  const BlockStatus st = co_await log_disk_.Read(lba, out);
  if (st != BlockStatus::kOk) {
    co_return st;
  }
  // Overlay buffered (newer) contents, oldest entry first.
  const uint64_t first = lba;
  const uint64_t count = out.size() / kSectorSize;
  for (const Entry& e : fifo_) {
    const uint64_t e_first = e.lba;
    const uint64_t e_count = e.data.size() / kSectorSize;
    const uint64_t lo = std::max(first, e_first);
    const uint64_t hi = std::min(first + count, e_first + e_count);
    for (uint64_t s = lo; s < hi; ++s) {
      std::copy_n(e.data.begin() +
                      static_cast<ptrdiff_t>((s - e_first) * kSectorSize),
                  kSectorSize,
                  out.begin() + static_cast<ptrdiff_t>((s - first) *
                                                       kSectorSize));
    }
  }
  co_return BlockStatus::kOk;
}

// Suspends the drain for `wait`; CutLinger() ends it early.
struct RapiLogDevice::LingerAwaiter {
  RapiLogDevice& dev;
  Duration wait;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    dev.lingering_ = h;
    const uint64_t gen = ++dev.linger_gen_;
    dev.sim_.Schedule(wait, [d = &dev, gen] { d->EndLinger(gen); });
  }
  void await_resume() const noexcept {}
};

void RapiLogDevice::CutLinger() {
  if (lingering_) {
    sim_.Schedule(Duration::Zero(),
                  [this, gen = linger_gen_] { EndLinger(gen); });
  }
}

void RapiLogDevice::EndLinger(uint64_t gen) {
  if (lingering_ && gen == linger_gen_) {
    std::exchange(lingering_, nullptr).resume();
  }
}

Task<void> RapiLogDevice::DrainLoop() {
  // The batch being drained: every entry stamped at or below this. A batch
  // is the whole backlog at the moment a drain run was called for; entries
  // buffered or absorbed after that wait for the next run.
  uint64_t batch_end = 0;
  while (true) {
    if (!powered_ || fifo_.empty()) {
      drained_.NotifyAll();
      co_await drain_wake_.Wait();
      continue;
    }
    // Drain in half-budget batches instead of chasing the live tail: on a
    // shared spindle every small FUA write costs a seek and breaks whatever
    // sequential stream the other tenants had going. Below the threshold
    // the backlog lingers until it has waited out the residency bound.
    if (DrainRequested()) {
      batch_end = last_stamp_;
    } else if (fifo_.front().stamp > batch_end) {
      const rlsim::TimePoint due =
          fifo_.front().buffered_at + kDrainLinger;
      if (sim_.now() < due) {
        co_await LingerAwaiter{*this, due - sim_.now()};
        continue;
      }
      batch_end = last_stamp_;
    }
    // Coalesce a run of physically contiguous entries into one disk write
    // (log appends are contiguous by construction, so the drain streams at
    // media rate instead of paying per-entry actuator trips). Entries are
    // copied, not popped: they must stay visible to reads and to the
    // occupancy accounting until they are actually on the disk.
    constexpr size_t kMaxRunEntries = 64;
    const uint64_t run_lba = fifo_.front().lba;
    uint64_t next_lba = run_lba;
    uint64_t run_end = 0;  // stamp of the run's last entry
    size_t run_entries = 0;
    staging_.clear();
    for (const Entry& e : fifo_) {
      if (run_entries == kMaxRunEntries || e.lba != next_lba ||
          e.stamp > batch_end) {
        break;
      }
      staging_.insert(staging_.end(), e.data.begin(), e.data.end());
      next_lba = e.lba + e.data.size() / kSectorSize;
      run_end = e.stamp;
      ++run_entries;
    }
    BlockStatus st;
    {
      // The hold-up-critical physical write behind the guest's back.
      rlsim::SpanScope drain_span(sim_, "rapilog", "drain-write",
                                  static_cast<int64_t>(staging_.size()));
      st = co_await log_disk_.Write(run_lba, staging_, /*fua=*/true);
    }
    if (!powered_) {
      continue;  // rails dropped mid-write; OnPowerDown handles the fallout
    }
    if (st != BlockStatus::kOk) {
      // Physical write failed (transient medium error, or the disk lost
      // power first). Back off briefly and retry rather than parking on
      // drain_wake_: during an emergency flush no new admissions arrive to
      // wake us, and the hold-up window is ticking.
      co_await sim_.Sleep(Duration::Micros(200));
      continue;
    }
    // Retire the written prefix. An entry absorbed (superseded) while we
    // were writing carries a newer stamp than the run and stays buffered;
    // so do entries of a FIFO that a power cycle emptied and refilled.
    while (!fifo_.empty() && fifo_.front().stamp <= run_end) {
      const uint64_t bytes = fifo_.front().data.size();
      buffered_bytes_ -= bytes;
      fifo_.pop_front();
      stats_.drained_writes.Add();
      stats_.drained_bytes.Add(static_cast<int64_t>(bytes));
    }
    space_available_.NotifyAll();
    if (fifo_.empty()) {
      drained_.NotifyAll();
    }
  }
}

void RapiLogDevice::OnPowerFailWarning(rlsim::Duration time_remaining) {
  (void)time_remaining;
  if (!options_.enable_power_guard) {
    return;
  }
  emergency_ = true;
  stats_.emergency_flushes.Add();
  sim_.EmitTrace("rapilog", "emergency-flush",
                 static_cast<uint32_t>(buffered_bytes_));
  // Seal the disk for the emergency flush: the trusted driver discards the
  // dead guest's queued requests so the drain is not stuck behind them.
  log_disk_.EnterEmergencyMode();
  // The flag stops new admissions and further lingering; a linger already
  // in progress ends now, so the flush starts at the warning.
  drain_wake_.NotifyAll();
  CutLinger();
}

void RapiLogDevice::OnOutageAbsorbed() {
  // Mains returned inside the hold-up window: stand down.
  emergency_ = false;
  drain_wake_.NotifyAll();
  space_available_.NotifyAll();
}

void RapiLogDevice::OnPowerDown() {
  powered_ = false;
  sim_.EmitTrace("rapilog", "power-down",
                 static_cast<uint32_t>(buffered_bytes_));
  if (buffered_bytes_ > 0) {
    // Acknowledged data died in volatile memory — the failure RapiLog
    // exists to prevent. Recorded, not thrown: the ablation experiments
    // measure exactly this.
    stats_.lost_bytes.Add(static_cast<int64_t>(buffered_bytes_));
  }
  fifo_.clear();
  buffered_bytes_ = 0;
  drain_wake_.NotifyAll();
  space_available_.NotifyAll();
  drained_.NotifyAll();
}

void RapiLogDevice::OnPowerRestore() {
  powered_ = true;
  emergency_ = false;
  drain_wake_.NotifyAll();
  space_available_.NotifyAll();
}

Task<void> RapiLogDevice::Quiesce() {
  // Asks for the whole backlog now: no residency wait.
  ++quiescers_;
  CutLinger();
  while (powered_ && !fifo_.empty()) {
    co_await drained_.Wait();
  }
  --quiescers_;
}

}  // namespace rapilog
