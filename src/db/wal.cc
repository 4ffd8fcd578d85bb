#include "src/db/wal.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/db/errors.h"
#include "src/db/layout.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"

namespace rldb {

using rlsim::Duration;
using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

namespace {

constexpr uint32_t kBlockMagic = 0x524C574C;  // "RLWL"
constexpr size_t kBlockHeaderBytes = 32;

// Block header: [u32 magic][u64 index][u16 used][u32 crc(payload[0..used))],
// rest of the 32 bytes reserved.

// A record's wire bytes beyond its value (see wal.h).
constexpr size_t kRecordOverheadBytes = 4 + 27 + 4;

// In kAsyncUnsafe mode, how often the background flusher forces the log
// (real engines run this on a coarse timer — PostgreSQL's wal_writer_delay,
// InnoDB's once-per-second flush — which is exactly why async commit loses
// acknowledged transactions on power failure).
constexpr Duration kAsyncFlushInterval = Duration::Millis(200);

// Appends the wire encoding of one record to `out`.
void EncodeRecordTo(LogRecordType type, uint64_t lsn, uint64_t txn_id,
                    uint64_t key, std::span<const uint8_t> value,
                    std::vector<uint8_t>& out) {
  const uint16_t vlen = static_cast<uint16_t>(value.size());
  const uint32_t payload_len = 1 + 8 + 8 + 8 + 2 + vlen;
  const size_t at = out.size();
  out.resize(at + 4 + payload_len + 4);
  const std::span<uint8_t> buf = std::span<uint8_t>(out).subspan(at);
  StoreScalar<uint32_t>(buf, 0, payload_len);
  StoreScalar<uint8_t>(buf, 4, static_cast<uint8_t>(type));
  StoreScalar<uint64_t>(buf, 5, lsn);
  StoreScalar<uint64_t>(buf, 13, txn_id);
  StoreScalar<uint64_t>(buf, 21, key);
  StoreScalar<uint16_t>(buf, 29, vlen);
  std::copy(value.begin(), value.end(), buf.begin() + 31);
  const uint32_t crc = rlsim::Crc32c(buf.subspan(4, payload_len));
  StoreScalar<uint32_t>(buf, 4 + payload_len, crc);
}

}  // namespace

std::vector<uint8_t> EncodeRecord(const LogRecord& rec) {
  std::vector<uint8_t> buf;
  EncodeRecordTo(rec.type, rec.lsn, rec.txn_id, rec.key, rec.value, buf);
  return buf;
}

std::optional<LogRecord> DecodeRecord(std::span<const uint8_t> buf,
                                      size_t* offset) {
  if (*offset + 4 > buf.size()) {
    return std::nullopt;
  }
  const uint32_t payload_len = LoadScalar<uint32_t>(buf, *offset);
  if (payload_len < 27 || *offset + 4 + payload_len + 4 > buf.size()) {
    return std::nullopt;
  }
  const auto payload = buf.subspan(*offset + 4, payload_len);
  const uint32_t crc = LoadScalar<uint32_t>(buf, *offset + 4 + payload_len);
  if (rlsim::Crc32c(payload) != crc) {
    return std::nullopt;
  }
  LogRecord rec;
  rec.type = static_cast<LogRecordType>(payload[0]);
  rec.lsn = LoadScalar<uint64_t>(payload, 1);
  rec.txn_id = LoadScalar<uint64_t>(payload, 9);
  rec.key = LoadScalar<uint64_t>(payload, 17);
  const uint16_t vlen = LoadScalar<uint16_t>(payload, 25);
  if (27u + vlen != payload_len) {
    return std::nullopt;
  }
  rec.value.assign(payload.begin() + 27, payload.begin() + 27 + vlen);
  *offset += 4 + payload_len + 4;
  return rec;
}

LogRing::LogRing(const rlstor::BlockDevice& device,
                 const EngineProfile& profile)
    : blocks(std::min(profile.log_ring_bytes,
                      device.geometry().sector_count * kSectorSize) /
             profile.log_block_bytes),
      sectors_per_block(profile.log_block_bytes / kSectorSize) {}

LogWriter::LogWriter(rlsim::Simulator& sim, rlstor::BlockDevice& device,
                     const EngineProfile& profile, DurabilityMode durability)
    : sim_(sim),
      device_(device),
      profile_(profile),
      durability_(durability),
      ring_(device, profile),
      work_wake_(sim),
      durable_wake_(sim),
      exited_wake_(sim) {
  RL_CHECK(profile_.log_block_bytes % kSectorSize == 0);
  RL_CHECK(profile_.log_block_bytes > kBlockHeaderBytes + 64);
  RL_CHECK_MSG(ring_.blocks > 0, "log device smaller than one log block");
  sim_.Spawn(FlusherLoop(), "wal-flusher");
}

void LogWriter::ResumeAt(uint64_t next_block, uint64_t next_lsn) {
  RL_CHECK(sealed_.empty() && tail_payload_.empty());
  tail_index_ = next_block;
  next_lsn_ = next_lsn;
  durable_lsn_ = next_lsn - 1;
  appended_lsn_ = next_lsn - 1;
}

void LogWriter::SetReuseFloor(uint64_t block) {
  RL_CHECK_MSG(block >= floor_ && block <= tail_index_,
               "reuse floor " << block << " outside [" << floor_ << ", "
                              << tail_index_ << "]");
  floor_ = block;
}

bool LogWriter::HasRoom(size_t records, size_t value_bytes) const {
  // Every record is taken at the largest size, so the answer may be
  // conservative, never optimistic.
  const size_t record_bytes = kRecordOverheadBytes + value_bytes;
  const size_t per_block = PayloadCapacity() / record_bytes;
  RL_CHECK_MSG(per_block > 0, "log record larger than a log block");
  const size_t in_tail =
      (PayloadCapacity() - tail_payload_.size()) / record_bytes;
  uint64_t last = tail_index_;
  if (records > in_tail) {
    last += (records - in_tail + per_block - 1) / per_block;
  }
  return last + kReserveBlocks < floor_ + ring_.blocks;
}

size_t LogWriter::PayloadCapacity() const {
  return profile_.log_block_bytes - kBlockHeaderBytes;
}

void LogWriter::SealTail() {
  sealed_.push_back(
      SealedBlock{tail_index_, std::move(tail_payload_), tail_crc_});
  tail_payload_.clear();
  tail_payload_.reserve(PayloadCapacity());
  tail_crc_ = 0;
  ++tail_index_;
  stats_.max_live_blocks =
      std::max(stats_.max_live_blocks, tail_index_ - floor_);
}

uint64_t LogWriter::Append(LogRecordType type, uint64_t txn_id, uint64_t key,
                           std::span<const uint8_t> value) {
  const uint64_t lsn = next_lsn_++;
  const size_t wire_bytes = kRecordOverheadBytes + value.size();
  RL_CHECK_MSG(wire_bytes <= PayloadCapacity(),
               "log record larger than a log block");
  if (tail_payload_.size() + wire_bytes > PayloadCapacity()) {
    SealTail();
  }
  EncodeRecordTo(type, lsn, txn_id, key, value, tail_payload_);
  tail_crc_ = rlsim::Crc32c(
      std::span<const uint8_t>(tail_payload_).last(wire_bytes), tail_crc_);
  appended_lsn_ = lsn;
  stats_.records_appended.Add();
  work_wake_.NotifyAll();
  return lsn;
}

Task<void> LogWriter::WaitDurable(uint64_t lsn) {
  if (durability_ == DurabilityMode::kAsyncUnsafe) {
    co_return;  // the unsafe fast path: trust that the flusher catches up
  }
  rlsim::SpanScope span(sim_, "wal", "commit-wait",
                        static_cast<int64_t>(lsn));
  const TimePoint start = sim_.now();
  work_wake_.NotifyAll();
  while (durable_lsn_ < lsn) {
    if (shutdown_ || halted_) {
      throw EngineHalted();
    }
    co_await durable_wake_.Wait();
  }
  stats_.commit_wait.RecordDuration(sim_.now() - start);
}

Task<void> LogWriter::Force() {
  const uint64_t target = appended_lsn_;
  work_wake_.NotifyAll();
  while (durable_lsn_ < target) {
    if (shutdown_ || halted_) {
      throw EngineHalted();
    }
    co_await durable_wake_.Wait();
  }
}

void LogWriter::RenderBlock(uint64_t index, std::span<const uint8_t> payload,
                            uint32_t payload_crc, BlockImage& image) const {
  if (image.bytes.empty() || image.index != index ||
      image.used > payload.size()) {
    image.bytes.assign(profile_.log_block_bytes, 0);
    StoreScalar<uint32_t>(image.bytes, 0, kBlockMagic);
    StoreScalar<uint64_t>(image.bytes, 4, index);
    image.index = index;
    image.used = 0;
  }
  StoreScalar<uint16_t>(image.bytes, 12,
                        static_cast<uint16_t>(payload.size()));
  StoreScalar<uint32_t>(image.bytes, 14, payload_crc);
  std::copy(payload.begin() + static_cast<ptrdiff_t>(image.used),
            payload.end(),
            image.bytes.begin() +
                static_cast<ptrdiff_t>(kBlockHeaderBytes + image.used));
  image.used = payload.size();
}

void LogWriter::BeginShutdown() {
  shutdown_ = true;
  durable_wake_.NotifyAll();
  work_wake_.NotifyAll();
}

Task<void> LogWriter::Shutdown() {
  BeginShutdown();
  while (!flusher_exited_) {
    co_await exited_wake_.Wait();
  }
}

Task<void> LogWriter::FlusherLoop() {
  while (!shutdown_) {
    const bool work_pending = durable_lsn_ < appended_lsn_;
    if (!work_pending) {
      co_await work_wake_.Wait();
      continue;
    }
    if (durability_ == DurabilityMode::kAsyncUnsafe) {
      co_await sim_.Sleep(kAsyncFlushInterval);
    } else if (profile_.group_commit_window > Duration::Zero()) {
      co_await sim_.Sleep(profile_.group_commit_window);
    }
    if (shutdown_) {
      // Teardown began while we were batching: abandon the cycle. Close() is
      // a post-fault teardown, not a clean flush — pending bytes represent
      // volatile state that the simulated crash already destroyed.
      break;
    }
    const TimePoint cycle_start = sim_.now();
    const uint64_t flush_upto = appended_lsn_;
    const int64_t durable_before = static_cast<int64_t>(durable_lsn_);
    // End arg: how many records this cycle made durable (0 if it halted).
    rlsim::SpanScope cycle_span(sim_, "wal", "flush-cycle", 0);

    // Snapshot what must go out: all sealed blocks plus the current tail.
    batch_.clear();
    while (!sealed_.empty()) {
      batch_.push_back(std::move(sealed_.front()));
      sealed_.pop_front();
    }
    const uint64_t tail_index_snapshot = tail_index_;
    const bool tail_pending = !tail_payload_.empty();
    if (tail_pending) {
      RenderBlock(tail_index_snapshot, tail_payload_, tail_crc_, tail_image_);
    }

    // Reusing the ring position of a block at or past floor + ring would
    // overwrite a block a recovery may still start from. That is a sizing
    // error, not a device failure: halting would read as a power cut the
    // engine can recover from, and the next incarnation would meet the
    // same full ring.
    const uint64_t last_index = tail_pending || batch_.empty()
                                    ? tail_index_snapshot
                                    : batch_.back().index;
    RL_CHECK_MSG(last_index < floor_ + ring_.blocks,
                 "log area full: the log reached block "
                     << last_index << " (" << profile_.log_block_bytes
                     << " B each) of a " << ring_.blocks
                     << "-block ring whose reuse floor is block " << floor_
                     << ", on a " << device_.geometry().sector_count
                     << "-sector log device");

    bool ok = true;
    const auto note = [&ok](BlockStatus st) {
      ok = ok && st == BlockStatus::kOk;
    };
    // The flusher must survive the machine dying under it (device failure,
    // or a guest crash unwinding a paravirtual request): the failure halts
    // the writer instead of propagating.
    try {
      for (const SealedBlock& sb : batch_) {
        RenderBlock(sb.index, sb.payload, sb.crc, block_image_);
        note(co_await device_.Write(ring_.Lba(sb.index), block_image_.bytes,
                                    false));
        stats_.blocks_written.Add();
        stats_.bytes_written.Add(
            static_cast<int64_t>(block_image_.bytes.size()));
      }
      if (tail_pending) {
        note(co_await device_.Write(ring_.Lba(tail_index_snapshot),
                                    tail_image_.bytes, false));
        stats_.blocks_written.Add();
        stats_.bytes_written.Add(
            static_cast<int64_t>(tail_image_.bytes.size()));
      }
      if (ok) {
        const BlockStatus st = co_await device_.Flush();
        ok = st == BlockStatus::kOk;
      }
    } catch (...) {
      ok = false;
    }
    if (ok) {
      durable_lsn_ = flush_upto;
      stats_.flush_cycles.Add();
      stats_.flush_latency.RecordDuration(sim_.now() - cycle_start);
      stats_.records_per_cycle.Record(static_cast<int64_t>(flush_upto) -
                                      durable_before);
      cycle_span.set_end_arg(static_cast<int64_t>(flush_upto) -
                             durable_before);
      durable_wake_.NotifyAll();
    } else {
      // Device unavailable (power loss, injected I/O fault, guest death).
      // The batch moved out of sealed_ above is gone; retrying a later cycle
      // would advance durable_lsn_ over blocks that were never written. The
      // only safe outcome is a permanent halt: waiters unwind with
      // EngineHalted and the harness reopens the database, whose recovery
      // scan re-establishes the true durable prefix.
      halted_ = true;
      durable_wake_.NotifyAll();
      break;
    }
  }
  flusher_exited_ = true;
  exited_wake_.NotifyAll();
}

Task<LogScanResult> ScanLog(rlstor::BlockDevice& device,
                            const EngineProfile& profile,
                            uint64_t start_block) {
  LogScanResult result;
  result.next_block = start_block;
  const LogRing ring(device, profile);
  std::vector<uint8_t> block(profile.log_block_bytes);
  uint64_t last_lsn = 0;
  bool end = false;
  for (uint64_t index = start_block;
       !end && index < start_block + ring.blocks; ++index) {
    const BlockStatus st = co_await device.Read(ring.Lba(index), block);
    if (st != BlockStatus::kOk) {
      break;
    }
    if (LoadScalar<uint32_t>(block, 0) != kBlockMagic ||
        LoadScalar<uint64_t>(block, 4) != index) {
      break;  // unwritten, or a block from an older lap
    }
    const size_t capacity = profile.log_block_bytes - kBlockHeaderBytes;
    const uint16_t used = std::min<uint16_t>(
        LoadScalar<uint16_t>(block, 12), static_cast<uint16_t>(capacity));
    const auto payload =
        std::span<const uint8_t>(block.data() + kBlockHeaderBytes, used);
    // Whether or not the block checksum holds, salvage the valid record
    // prefix (records carry their own CRCs). A torn in-place rewrite of the
    // tail block leaves exactly the old, previously-durable prefix intact —
    // payload bytes are append-only within a block — so acknowledged
    // records survive even when the block-level CRC does not.
    end = rlsim::Crc32c(payload) != LoadScalar<uint32_t>(block, 14);
    size_t offset = 0;
    while (auto rec = DecodeRecord(payload, &offset)) {
      if (rec->lsn <= last_lsn) {
        // A torn first write of a reused block: past the new prefix lie
        // an older lap's records, whole and CRC-clean. The log ends here.
        end = true;
        break;
      }
      last_lsn = rec->lsn;
      result.next_lsn = rec->lsn + 1;
      result.records.push_back(std::move(*rec));
    }
    result.next_block = index + 1;
  }
  co_return result;
}

}  // namespace rldb
