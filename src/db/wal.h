// Write-ahead log: record format, group-committing writer, and the recovery
// reader.
//
// The log is a sequence of fixed-size blocks on the log device. Each block
// carries {magic, block index, used bytes, crc}; records are packed
// back-to-back in the payload and never span blocks. The writer keeps a
// partially-filled tail block and rewrites it as records accumulate — the
// access pattern whose synchronous-durability cost RapiLog eliminates.
//
// The blocks form a ring: block i lives at ring position i mod the ring's
// size, so the log reuses its area instead of growing across the device.
// The owner names a reuse floor (the durable checkpoint's replay block);
// the writer never writes a block at or past floor + ring, so every block
// a recovery can start from is intact.
//
// Recovery scans blocks from a checkpoint-recorded start until the first
// invalid block; because commits are only acknowledged after a device flush
// (or a RapiLog ack), every acknowledged commit lies inside the valid
// prefix. A block from an older lap carries an older index, and a record
// left behind a torn rewrite carries an older LSN; either ends the scan.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "src/db/profile.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"

namespace rldb {

enum class LogRecordType : uint8_t {
  kUpdate = 1,
  kDelete = 2,
  kCommit = 3,
  // Two-phase commit (src/shard): a participant's durable yes-vote. The
  // record's `key` field carries the distributed transaction's global id.
  // A prepared transaction whose decision is unknown at recovery is held
  // in doubt (locks re-acquired, writes unapplied) until the coordinator
  // answers — or presumed aborted when the coordinator has no decision.
  kPrepare = 4,
  // A resolved abort for a previously-prepared transaction. Best-effort
  // (never waited on): losing it only means the transaction re-enters doubt
  // at the next recovery and is presumed-aborted again.
  kAbort = 5,
};

struct LogRecord {
  LogRecordType type = LogRecordType::kUpdate;
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  uint64_t key = 0;  // kUpdate/kDelete: row key; kPrepare/kAbort: global id
  std::vector<uint8_t> value;  // kUpdate only
};

// Wire encoding: [u32 payload_len][payload][u32 crc(payload)], where
// payload = [u8 type][u64 lsn][u64 txn][u64 key][u16 vlen][value].
std::vector<uint8_t> EncodeRecord(const LogRecord& rec);
// Decodes one record at `offset`; advances `offset`. Returns nullopt at a
// clean end (not enough bytes for another record).
std::optional<LogRecord> DecodeRecord(std::span<const uint8_t> buf,
                                      size_t* offset);

// Where the log's blocks live on its device: the ring's size in whole log
// blocks (profile.log_ring_bytes, or the whole device if smaller), and the
// LBA of block `index`.
struct LogRing {
  LogRing(const rlstor::BlockDevice& device, const EngineProfile& profile);
  uint64_t Lba(uint64_t index) const {
    return index % blocks * sectors_per_block;
  }
  uint64_t blocks = 0;
  uint64_t sectors_per_block = 0;
};

class LogWriter {
 public:
  struct Stats {
    rlsim::Counter records_appended;
    rlsim::Counter flush_cycles;
    rlsim::Counter blocks_written;
    rlsim::Counter bytes_written;
    rlsim::Histogram flush_latency;     // ns per device flush cycle
    rlsim::Histogram commit_wait;       // ns a WaitDurable spent blocked
    rlsim::Histogram records_per_cycle;
    uint64_t max_live_blocks = 0;  // largest tail - reuse floor so far
  };

  LogWriter(rlsim::Simulator& sim, rlstor::BlockDevice& device,
            const EngineProfile& profile, DurabilityMode durability);

  // Ring blocks that HasRoom keeps free for records that must not wait for
  // room: a 2PC decision, whose own completion is what frees the ring.
  static constexpr uint64_t kReserveBlocks = 4;

  // Continues an existing log (after recovery): next block index and LSN.
  void ResumeAt(uint64_t next_block, uint64_t next_lsn);

  // Lets the writer reuse the ring positions of blocks below `block`: no
  // recovery will read them again. The floor only rises, and never past the
  // tail. A writer whose floor stays put fails a named check when its log
  // reaches the ring's end.
  void SetReuseFloor(uint64_t block);

  // Whether `records` more records, of at most `value_bytes` of value each,
  // fit below the ring's end with kReserveBlocks to spare.
  bool HasRoom(size_t records, size_t value_bytes) const;

  // Assigns the next LSN to a record of `type`, buffers it, and returns the
  // LSN. `value` is the row image of a kUpdate and empty otherwise.
  uint64_t Append(LogRecordType type, uint64_t txn_id, uint64_t key,
                  std::span<const uint8_t> value = {});
  // The same for a LogRecord; its `lsn` field is ignored.
  uint64_t Append(const LogRecord& rec) {
    return Append(rec.type, rec.txn_id, rec.key, rec.value);
  }

  // Blocks until everything up to and including `lsn` is on stable storage
  // (in kAsyncUnsafe mode this returns immediately — that is the unsafety).
  rlsim::Task<void> WaitDurable(uint64_t lsn);

  // Forces everything appended so far to stable storage (checkpoint path).
  rlsim::Task<void> Force();

  // Initiates shutdown without blocking: parked durability waiters are woken
  // and unwind with EngineHalted; the flusher exits its loop.
  void BeginShutdown();

  // BeginShutdown() plus waiting for the flusher to exit (including any
  // in-flight device I/O). Must complete before the LogWriter is destroyed
  // if the writer was ever used on a device that can stall mid-request.
  rlsim::Task<void> Shutdown();

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t durable_lsn() const { return durable_lsn_; }
  // True once a flush cycle failed (device off, I/O error, guest death).
  // The writer is then permanently dead: durability can never be promised
  // again on this incarnation, because blocks dropped by the failed cycle
  // would leave holes behind any later durable_lsn advance. Waiters unwind
  // with EngineHalted; the harness recovers by reopening the database.
  bool halted() const { return halted_; }
  // Block that would hold the next appended record (checkpoint replay start).
  uint64_t current_block_index() const { return tail_index_; }
  uint64_t reuse_floor() const { return floor_; }
  const LogRing& ring() const { return ring_; }

  const Stats& stats() const { return stats_; }
  Stats& stats() { return stats_; }

 private:
  rlsim::Task<void> FlusherLoop();
  size_t PayloadCapacity() const;
  void SealTail();
  // The on-disk image of one block, and which version of it: a block's
  // payload only grows until it is sealed, so re-rendering the same block
  // copies just the bytes appended since.
  struct BlockImage {
    std::vector<uint8_t> bytes;
    uint64_t index = 0;
    size_t used = 0;  // payload bytes rendered
  };
  // Renders block `index` into `image`; `payload_crc` is the CRC-32C of
  // `payload`.
  void RenderBlock(uint64_t index, std::span<const uint8_t> payload,
                   uint32_t payload_crc, BlockImage& image) const;

  rlsim::Simulator& sim_;
  rlstor::BlockDevice& device_;
  EngineProfile profile_;
  DurabilityMode durability_;
  LogRing ring_;
  uint64_t floor_ = 0;

  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t appended_lsn_ = 0;

  struct SealedBlock {
    uint64_t index;
    std::vector<uint8_t> payload;
    uint32_t crc;  // of payload
  };
  std::deque<SealedBlock> sealed_;
  uint64_t tail_index_ = 0;
  std::vector<uint8_t> tail_payload_;
  uint32_t tail_crc_ = 0;  // of tail_payload_, kept as records are appended
  // The flusher's working set, reused across cycles: the sealed blocks it
  // took, the tail image rendered at the snapshot, and the image of the
  // sealed block being written.
  std::vector<SealedBlock> batch_;
  BlockImage tail_image_;
  BlockImage block_image_;
  bool tail_written_since_change_ = false;

  bool flush_in_progress_ = false;
  bool shutdown_ = false;
  bool halted_ = false;
  bool flusher_exited_ = false;
  rlsim::WaitQueue work_wake_;
  rlsim::WaitQueue durable_wake_;
  rlsim::WaitQueue exited_wake_;

  Stats stats_;
};

// Result of scanning the log at recovery.
struct LogScanResult {
  std::vector<LogRecord> records;  // in LSN order
  uint64_t next_block = 0;         // first invalid/unwritten block
  uint64_t next_lsn = 1;           // 1 + highest LSN seen
};

// Reads the valid prefix of the log starting at `start_block`: at most one
// lap of the ring, up to the first block that is unwritten, from an older
// lap or torn, or the first record whose LSN does not rise.
rlsim::Task<LogScanResult> ScanLog(rlstor::BlockDevice& device,
                                   const EngineProfile& profile,
                                   uint64_t start_block);

}  // namespace rldb
