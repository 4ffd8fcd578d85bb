// The storage engine façade: transactions over the B+-tree with write-ahead
// logging, journaled (atomic) checkpoints, and crash recovery.
//
// Concurrency & recovery design (details in DESIGN.md):
//   * deferred update — a transaction's writes live in its write-set and are
//     applied to the tree only after its commit record is durable, so pages
//     never contain uncommitted data (no-steal, no undo);
//   * redo-only logical WAL — recovery replays SET/DELETE operations of
//     committed transactions since the last checkpoint (idempotent);
//   * sharp, journaled checkpoints — all dirty pages go to the on-disk
//     journal first, then in place, then the metadata flips; a crash at any
//     point yields either the complete old or complete new page set, so the
//     tree recovery starts from is always structurally consistent.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/db/btree.h"
#include "src/db/buffer_pool.h"
#include "src/db/cpu_context.h"
#include "src/db/layout.h"
#include "src/db/lock_manager.h"
#include "src/db/profile.h"
#include "src/db/wal.h"
#include "src/sim/node_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/stats.h"

namespace rldb {

enum class DbStatus {
  kOk,
  kNotFound,
  kLockTimeout,  // transaction was aborted; caller should retry it
  kTxnNotActive,
};

std::string ToString(DbStatus s);

// How crash recovery replays the committed WAL suffix. Every setting yields
// the same recovered contents (asserted by the recovery-equivalence oracle);
// the knobs trade virtual recovery time only.
struct RecoveryOptions {
  // Redo streams, >= 1. Redo records are partitioned by key slice (layout.h
  // RedoSliceOf) into this many streams, whose decode CPU overlaps in
  // virtual time; each stream is reduced to its net effect per key and the
  // net-ops are installed in ascending key order. The recovered tree is
  // byte-identical at every stream count, 1 included.
  uint32_t partitions = 1;
};

struct DbOptions {
  EngineProfile profile;
  DurabilityMode durability = DurabilityMode::kSync;
  uint32_t pool_pages = 4096;
  // Journal region size in pages; must exceed profile.checkpoint_dirty_pages
  // plus headroom for pages dirtied while a checkpoint is pending.
  uint32_t journal_pages = 2048;
  RecoveryOptions recovery;
};

class Database {
 public:
  struct Stats {
    rlsim::Counter commits;
    rlsim::Counter aborts;
    rlsim::Counter checkpoints;
    rlsim::Counter recovered_records;   // redo records replayed (post-horizon)
    rlsim::Counter redo_skipped_by_horizon;  // redo records a horizon retired
    rlsim::Counter redo_installed_ops;  // tree mutations the redo performed
    rlsim::Counter journal_header_reads;  // journal header page reads/recovery
    // Sectors checkpoints wrote into the journal: header, id pages and the
    // packed page images.
    rlsim::Counter journal_sectors;
    // Bytes the completed checkpoints staged in host memory: each page's
    // journal image, its used prefix in whole sectors.
    rlsim::Counter staged_bytes;
    rlsim::Counter repaired_from_journal;
    rlsim::Counter prepares;            // durable 2PC yes-votes
    rlsim::Counter in_doubt_recovered;  // prepared txns rebuilt at recovery
    // Write-sets that waited for room in the log ring.
    rlsim::Counter log_room_waits;
    rlsim::Histogram commit_latency;  // ns, Commit() call to return
  };

  // Opens the database on the given devices, running recovery (journal
  // replay + WAL replay) or formatting a fresh database as appropriate.
  static rlsim::Task<std::unique_ptr<Database>> Open(
      rlsim::Simulator& sim, CpuContext& cpu, rlstor::BlockDevice& data_dev,
      rlstor::BlockDevice& log_dev, DbOptions options);

  ~Database();

  // Drains internal background work (pending checkpoint, WAL flusher) so the
  // object can be destroyed safely even after a crash or power fault left
  // I/O in flight. Client transactions that are parked forever (e.g. waiting
  // on durability that will never come) are abandoned — their frames are
  // reclaimed at simulator teardown.
  rlsim::Task<void> Close();

  // --- Transactions ----------------------------------------------------------

  uint64_t Begin();

  rlsim::Task<DbStatus> Get(uint64_t txn, uint64_t key,
                            std::vector<uint8_t>* value_out);
  rlsim::Task<DbStatus> Put(uint64_t txn, uint64_t key,
                            std::span<const uint8_t> value);
  rlsim::Task<DbStatus> Remove(uint64_t txn, uint64_t key);

  // Durably commits (in kSync mode the returned ack implies the commit
  // record is on stable storage — or buffered by RapiLog, which is the
  // paper's durability-equivalent). kLockTimeout is never returned here.
  rlsim::Task<DbStatus> Commit(uint64_t txn);

  // Aborts and forgets the transaction. A prepared transaction additionally
  // gets a best-effort kAbort record so the next recovery can skip re-doubt.
  rlsim::Task<void> Abort(uint64_t txn);

  // --- Two-phase commit (participant half; see src/shard) --------------------

  // Durably logs the transaction's write-set plus a prepare record carrying
  // `global_id`, keeps its locks, and votes yes by returning kOk. The
  // transaction then stays resident (pinning the WAL replay point) until a
  // coordinator decision arrives via CommitPrepared/Abort/ResolveInDoubt.
  rlsim::Task<DbStatus> Prepare(uint64_t txn, uint64_t global_id);

  // Applies the coordinator's commit decision to a prepared transaction:
  // durable commit record, then the write-set lands in the tree.
  rlsim::Task<DbStatus> CommitPrepared(uint64_t txn);

  // Global ids of every prepared-but-undecided transaction (recovered
  // in-doubt txns and live prepared ones alike), ascending.
  std::vector<uint64_t> InDoubtGlobalIds() const;

  // Routes a coordinator decision by global id (the recovery/resolver path,
  // where the local txn id of the old incarnation is meaningless). Returns
  // kTxnNotActive when no prepared txn carries `global_id` — already
  // resolved, decision already applied, or the prepare never became durable
  // — and, once its commit record is durable, when a commit of it is being
  // applied right now.
  rlsim::Task<DbStatus> ResolveInDoubt(uint64_t global_id, bool commit);

  // --- Maintenance -----------------------------------------------------------

  rlsim::Task<void> Checkpoint();

  // Non-transactional read of committed state (checkers/tests).
  rlsim::Task<bool> ReadCommitted(uint64_t key, std::vector<uint8_t>* out);
  rlsim::Task<uint64_t> CommittedCount();
  rlsim::Task<void> CheckTreeStructure();

  // FNV-1a over every (key, value) pair in ascending key order: the
  // content fingerprint the recovery-equivalence oracles compare. It reads
  // contents, not pages, so it does not depend on the page layout (one redo
  // stream and K streams build byte-identical trees in any case).
  rlsim::Task<uint64_t> ContentHash();

  const Stats& stats() const { return stats_; }
  const LogWriter& log_writer() const { return *wal_; }
  LogWriter& log_writer() { return *wal_; }
  const BufferPool& pool() const { return *pool_; }
  BufferPool& pool() { return *pool_; }
  const LockManager& locks() const { return *locks_; }
  const DbOptions& options() const { return options_; }
  uint64_t active_txns() const { return txns_.size(); }

 private:
  struct WriteOp {
    bool is_delete = false;
    uint64_t key = 0;
    size_t value_at = 0;  // a put's value: Txn::values from here on
  };
  struct Txn {
    // Back to a fresh transaction, keeping the buffers' capacity.
    void Reset() {
      ops.clear();
      values.clear();
      first_lsn = 0;
      first_block = 0;
      prepared = false;
      deciding = false;
      global_id = 0;
      commit_lsn = 0;
    }

    uint64_t id = 0;
    uint64_t first_lsn = 0;  // 0 until the first record is logged
    // The log block of the first record: no checkpoint may replay from
    // past it while the transaction is resident.
    uint64_t first_block = 0;
    std::vector<WriteOp> ops;
    // Every put's value, profile.value_bytes each, in op order: one buffer
    // per transaction instead of a vector per put.
    std::vector<uint8_t> values;
    // 2PC: set once the prepare record is durable; the txn holds its locks
    // and pins the replay point until a decision arrives.
    bool prepared = false;
    // A decision (commit or abort) is being applied right now; duplicate
    // decisions arriving mid-apply must not double-apply the write-set.
    bool deciding = false;
    uint64_t global_id = 0;  // kPrepare record payload
    uint64_t commit_lsn = 0;  // 0 until the commit record is appended
  };

  // Transaction nodes parked for reuse: twice the 16 clients of the
  // largest single-node workload.
  static constexpr size_t kTxnPoolCap = 32;

  Database(rlsim::Simulator& sim, CpuContext& cpu,
           rlstor::BlockDevice& data_dev, rlstor::BlockDevice& log_dev,
           DbOptions options);

  // Put and Remove: takes `key`'s lock for `txn`, reads in `key`'s
  // root-to-leaf path, and adds the write (a put of `value`, or a delete)
  // to its write-set. The read is what keeps disk I/O out of the commit's
  // apply.
  rlsim::Task<DbStatus> StageWrite(uint64_t txn, uint64_t key,
                                   std::span<const uint8_t> value,
                                   bool is_delete);
  // Adds a delete of `key`, or a put of `value` (profile.value_bytes long),
  // to `t`'s write-set.
  void AddOp(Txn& t, bool is_delete, uint64_t key,
             std::span<const uint8_t> value);
  // The value `op` puts (empty for a delete).
  std::span<const uint8_t> ValueOf(const Txn& t, const WriteOp& op) const;

  // One staged page: its journal entry and its journal image, the first
  // entry.sectors sectors of the sealed canonical page (whose free tail is
  // zero), in the checkpoint's arena.
  struct StagedPage {
    JournalEntry entry;
    std::span<const uint8_t> image;
  };

  // A consistent snapshot taken in one event: sealed page images,
  // in ascending page id, plus the metadata describing them. Staging copies
  // memory only (zero simulated time); the I/O happens afterwards from the
  // staged images, and commits wait for it only at the dirty throttle.
  struct StagedCheckpoint {
    MetaContent meta;
    // Per-slice low-water LSNs: records at or below horizons[s] whose key
    // falls in slice s are fully captured by this checkpoint's page images,
    // so a later recovery may skip re-applying them.
    std::array<uint64_t, kRedoSlices> horizons{};
    // The page images, packed back to back in page order into zeroed
    // chunks (kStageChunkBytes in database.cc); an image never straddles
    // two.
    std::vector<std::unique_ptr<uint8_t[]>> arena;
    std::vector<StagedPage> pages;
  };

  // The journal header page, read and parsed once per recovery and shared by
  // every consumer (journal-replay decision, embedded metadata, fuzzy
  // horizons) — the page is never re-read.
  struct JournalHeaderInfo {
    bool valid = false;      // page present, CRC-clean, right type
    MetaContent meta;        // checkpoint metadata embedded in the header
    // Journaled pages, image order; read (header, then id pages) only for a
    // journal newer than the durable metadata, the one recovery replays.
    std::vector<JournalEntry> entries;
    std::array<uint64_t, kRedoSlices> horizons{};  // per-slice low-water LSN
  };

  rlsim::Task<void> Recover();
  rlsim::Task<void> FormatFresh();
  rlsim::Task<std::optional<MetaContent>> ReadBestMeta();
  rlsim::Task<void> WriteMeta(const MetaContent& meta);
  rlsim::Task<JournalHeaderInfo> ReadJournalHeader(uint64_t durable_seq);
  rlsim::Task<void> ReplayJournal(const JournalHeaderInfo& header);
  // Applies a delete of `key`, or a put of `value`, to the tree: 0 once it
  // is applied, or the page it found missing (BTree::Put), which the caller
  // awaits Fetch for before it retries. Commit and redo apply through here.
  uint64_t ApplyWrite(bool is_delete, uint64_t key,
                      std::span<const uint8_t> value);
  rlsim::Task<void> Redo(const std::vector<LogRecord>& records,
                         const std::vector<size_t>& candidates,
                         const std::array<uint64_t, kRedoSlices>& horizons);
  // Appends `t`'s write-set to the WAL, one record per op; the first record
  // sets t.first_lsn and t.first_block. Commit and Prepare log through here.
  void LogWriteSet(Txn& t);
  // Marks `lsn`, just appended, as `t`'s first record if it has none.
  void NoteFirstRecord(Txn& t, uint64_t lsn);
  // Waits until `records` records fit in the log ring, asking for a
  // checkpoint (which moves the ring's reuse floor) each time round.
  rlsim::Task<void> WaitForLogRoom(size_t records);
  // Commit (prepared = false: CPU charge, then the write-set is logged) and
  // CommitPrepared (prepared = true: the write-set is already logged; a
  // second decision arriving mid-apply gets kTxnNotActive) share one path
  // from there: append the commit record and wait until it is durable,
  // apply the write-set to the tree, release the locks, forget the txn and
  // count the commit. Both forward here, so neither adds a coroutine frame.
  rlsim::Task<DbStatus> CommitDurably(uint64_t txn, bool prepared);
  rlsim::Task<void> ThrottleDirtyPages();
  // Synchronous, so it always sees whole writes.
  StagedCheckpoint StageCheckpoint();
  // Writes one page straight to the data device; a failed write means the
  // machine died under the checkpoint.
  rlsim::Task<void> WritePageOrHalt(uint64_t page_id,
                                    std::span<const uint8_t> image, bool fua);
  // The journal's header page (index 0) and the id pages the staged page
  // list spills onto, sealed and ready to write.
  std::vector<std::vector<uint8_t>> EncodeJournal(
      const StagedCheckpoint& staged) const;
  // Forces the log, then writes the staged checkpoint: journal, header,
  // pages in place, metadata.
  rlsim::Task<void> PersistCheckpoint(StagedCheckpoint staged);
  // Starts a background checkpoint unless one is pending; the Maybe form
  // only once the dirty-page threshold is reached or 3/4 of the log ring
  // has been written since the last checkpoint began.
  void ScheduleCheckpoint();
  void MaybeScheduleCheckpoint();

  rlsim::Simulator& sim_;
  CpuContext& cpu_;
  rlstor::BlockDevice& data_dev_;
  rlstor::BlockDevice& log_dev_;
  DbOptions options_;
  JournalLayout journal_;  // id pages and capacity of the journal region

  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<LogWriter> wal_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<BTree> tree_;

  MetaContent meta_;            // current (in-memory) metadata
  uint64_t root_ = 0;           // live tree root
  uint64_t next_free_page_ = 0; // page allocator watermark
  // Set by FormatFresh: every page of the tree was created in this pool.
  bool formatted_fresh_ = false;

  uint64_t next_txn_id_ = 1;
  using TxnMap = std::map<uint64_t, Txn>;
  TxnMap txns_;
  // Finished transactions' nodes, write-set buffers included, for Begin to
  // reuse.
  rlsim::NodePool<TxnMap> txn_pool_{kTxnPoolCap};

  // Dirty-page throttling: commits stall once this many pages are dirty,
  // until a checkpoint retires them. Derived from the journal's capacity
  // and the pool size.
  uint32_t dirty_throttle_pages_ = 0;
  // Set by Close(): parked client operations unwind with EngineHalted.
  bool closing_ = false;

  // Serialises whole checkpoints against each other.
  std::unique_ptr<rlsim::SimMutex> checkpoint_mutex_;
  bool checkpoint_pending_ = false;
  // The log's tail block when the last checkpoint was staged (or recovery
  // resumed): the log-volume trigger counts from here.
  uint64_t checkpoint_start_block_ = 0;
  std::unique_ptr<rlsim::WaitQueue> checkpoint_done_;

  Stats stats_;
};

}  // namespace rldb
