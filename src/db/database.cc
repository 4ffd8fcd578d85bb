#include "src/db/database.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/db/errors.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"
#include "src/sim/sync.h"

namespace rldb {

using rlsim::Task;
using rlsim::TimePoint;
using rlstor::BlockStatus;
using rlstor::kSectorSize;

std::string ToString(DbStatus s) {
  switch (s) {
    case DbStatus::kOk:
      return "ok";
    case DbStatus::kNotFound:
      return "not-found";
    case DbStatus::kLockTimeout:
      return "lock-timeout";
    case DbStatus::kTxnNotActive:
      return "txn-not-active";
  }
  return "unknown";
}

namespace {

// The journal's page-id list (layout.h "Checkpoint journal") continues from
// the header onto as many id pages as it needs. Horizons are the
// fuzzy-checkpoint metadata: per-slice low-water LSNs, valid for redo only
// when the header's seq matches the recovered checkpoint's seq (any torn or
// stale header degrades recovery to the global replay point, never to wrong
// data).
constexpr uint64_t kJournalHeaderPage = 0;

// Values a transaction's write set holds before its buffer first grows:
// TPC-C-lite's largest, a new-order of 15 items, puts 2 + 2 * 15 = 32 (a
// payment puts 3). Measured in bench_micro's OLTP scenario, heap allocations
// per transaction: 40.2 without a reserve, 38.0 at 16, 37.7 at 32.
constexpr size_t kWriteSetReserve = 32;

// Id pages (header excluded) that a list of `count` page ids spills onto.
uint32_t SpillIdPages(const JournalLayout& journal, size_t count) {
  if (count <= journal.header_ids) {
    return 0;
  }
  return static_cast<uint32_t>(
      (count - journal.header_ids + journal.ids_per_page - 1) /
      journal.ids_per_page);
}

}  // namespace

Database::Database(rlsim::Simulator& sim, CpuContext& cpu,
                   rlstor::BlockDevice& data_dev,
                   rlstor::BlockDevice& log_dev, DbOptions options)
    : sim_(sim),
      cpu_(cpu),
      data_dev_(data_dev),
      log_dev_(log_dev),
      options_(std::move(options)),
      journal_(JournalLayoutFor(options_.journal_pages,
                                options_.profile.page_bytes)) {
  RL_CHECK_MSG(options_.journal_pages >
                   options_.profile.checkpoint_dirty_pages,
               "journal must be able to hold a full checkpoint");
  RL_CHECK_MSG(options_.pool_pages > options_.profile.checkpoint_dirty_pages,
               "pool must be able to hold the dirty threshold");
  RL_CHECK_MSG(options_.recovery.partitions >= 1,
               "recovery needs at least one redo stream");
  pool_ = std::make_unique<BufferPool>(sim_, data_dev_,
                                       options_.profile.page_bytes,
                                       options_.pool_pages);
  wal_ = std::make_unique<LogWriter>(sim_, log_dev_, options_.profile,
                                     options_.durability);
  locks_ = std::make_unique<LockManager>(sim_, options_.profile.lock_timeout);
  apply_mutex_ = std::make_unique<rlsim::SimMutex>(sim_);
  checkpoint_mutex_ = std::make_unique<rlsim::SimMutex>(sim_);
  checkpoint_done_ = std::make_unique<rlsim::WaitQueue>(sim_);

  // A checkpoint's dirty set must fit the journal's capacity; commits
  // throttle safely below that, and the automatic checkpoint threshold sits
  // below the throttle so the stall is normally never hit.
  const uint32_t capacity = journal_.capacity;
  dirty_throttle_pages_ = std::min(capacity - capacity / 8,
                                   options_.pool_pages * 3 / 4);
  RL_CHECK_MSG(options_.profile.checkpoint_dirty_pages < dirty_throttle_pages_,
               "checkpoint threshold must sit below the dirty throttle ("
                   << dirty_throttle_pages_ << " pages)");
}

Task<void> Database::ThrottleDirtyPages() {
  // Opened only once the commit actually waits, so an unthrottled commit
  // emits nothing; one span covers the whole wait however many checkpoints
  // it takes.
  std::optional<rlsim::SpanScope> wait_span;
  while (pool_->dirty_count() >= dirty_throttle_pages_) {
    if (closing_ || wal_->halted()) {
      // A halted WAL can never satisfy a checkpoint's Force(), so waiting
      // here would respawn failing checkpoints in a zero-time loop.
      throw EngineHalted();
    }
    if (!wait_span.has_value()) {
      wait_span.emplace(sim_, "db", "dirty-throttle",
                        static_cast<int64_t>(pool_->dirty_count()));
    }
    MaybeScheduleCheckpoint();
    co_await checkpoint_done_->Wait();
  }
}

Database::~Database() = default;

Task<void> Database::Close() {
  closing_ = true;
  // Begin the WAL shutdown first: a pending checkpoint may be blocked inside
  // Force(), and the shutdown signal is what unwinds it. Then wake every
  // other place a client coroutine can be parked — lock queues and the
  // dirty-page throttle — so nothing still references this object (or gets
  // resumed into it by a stale timeout event) after we return.
  wal_->BeginShutdown();
  locks_->Shutdown();
  checkpoint_done_->NotifyAll();
  while (checkpoint_pending_) {
    co_await checkpoint_done_->Wait();
  }
  co_await wal_->Shutdown();
  // One settle tick: waiters woken above run before Close() returns.
  co_await sim_.Sleep(rlsim::Duration::Zero());
}

Task<std::unique_ptr<Database>> Database::Open(rlsim::Simulator& sim,
                                               CpuContext& cpu,
                                               rlstor::BlockDevice& data_dev,
                                               rlstor::BlockDevice& log_dev,
                                               DbOptions options) {
  std::unique_ptr<Database> db(
      // rapicheck: new-ok (private constructor; immediately owned)
      new Database(sim, cpu, data_dev, log_dev, std::move(options)));
  std::exception_ptr failure;
  try {
    co_await db->Recover();
  } catch (...) {
    failure = std::current_exception();
  }
  if (failure) {
    // Recovery died under us (power cut or device fault mid-open). The WAL
    // flusher task may still be parked inside a device request; destroying
    // the engine before it unwinds would leave it resuming into freed
    // memory. Signal shutdown and wait for it to exit, then propagate.
    co_await db->wal_->Shutdown();
    std::rethrow_exception(failure);
  }
  co_return db;
}

// --- Metadata & journal ------------------------------------------------------

Task<std::optional<MetaContent>> Database::ReadBestMeta() {
  std::optional<MetaContent> best;
  for (uint64_t sector : {kMetaSectorA, kMetaSectorB}) {
    std::vector<uint8_t> buf(kSectorSize);
    const BlockStatus st = co_await data_dev_.Read(sector, buf);
    if (st != BlockStatus::kOk) {
      continue;
    }
    const auto meta = DeserializeMeta(buf);
    if (meta.has_value() && (!best.has_value() || meta->seq > best->seq)) {
      best = meta;
    }
  }
  co_return best;
}

Task<void> Database::WriteMeta(const MetaContent& meta) {
  const std::vector<uint8_t> buf = SerializeMeta(meta);
  const uint64_t sector = (meta.seq % 2 == 0) ? kMetaSectorA : kMetaSectorB;
  const BlockStatus st = co_await data_dev_.Write(sector, buf, /*fua=*/true);
  if (st != BlockStatus::kOk) {
    throw EngineHalted();
  }
}

Task<Database::JournalHeaderInfo> Database::ReadJournalHeader(
    uint64_t durable_seq) {
  JournalHeaderInfo info;
  stats_.journal_header_reads.Add();
  const uint32_t page_bytes = options_.profile.page_bytes;
  std::vector<uint8_t> page(page_bytes);
  const bool ok = co_await pool_->ReadPageDirect(kJournalHeaderPage, page);
  if (!ok || !PageValid(page, kJournalHeaderPage) ||
      ReadPageHeader(page).type != PageType::kJournalHeader) {
    co_return info;  // fresh device, torn header, or not a journal header
  }
  const uint64_t seq = LoadScalar<uint64_t>(page, kJournalSeqOff);
  const uint32_t count = LoadScalar<uint32_t>(page, kJournalCountOff);
  RL_CHECK_MSG(count <= journal_.id_room,
               "journal lists " << count << " pages, room for "
                                << journal_.id_room);
  for (uint32_t s = 0; s < kRedoSlices; ++s) {
    info.horizons[s] =
        LoadScalar<uint64_t>(page, kJournalHorizonOff + s * 8ull);
  }
  // The header embeds the metadata of the checkpoint that wrote it; the page
  // CRC already passed, so a corrupt blob here is real corruption.
  const auto meta = DeserializeMeta(
      std::span<const uint8_t>(page.data() + kJournalMetaOff, kSectorSize));
  RL_CHECK_MSG(meta.has_value() && meta->seq == seq, "journal meta corrupt");
  info.meta = *meta;
  info.valid = true;
  if (seq <= durable_seq) {
    // Nothing to replay. The id pages may already belong to a later
    // checkpoint that died before its header was written.
    co_return info;
  }
  info.entries.reserve(count);
  const uint32_t in_header = std::min(count, journal_.header_ids);
  for (uint32_t i = 0; i < in_header; ++i) {
    info.entries.push_back(DecodeJournalEntry(
        LoadScalar<uint64_t>(page, kJournalHeaderIdsOff + i * 8ull)));
  }
  // The id pages were flushed before the header's FUA write, so each one
  // must be intact and carry the header's seq; anything else is corruption,
  // exactly as for a bad image.
  for (uint32_t p = 1; info.entries.size() < count; ++p) {
    const bool read_ok = co_await pool_->ReadPageDirect(p, page);
    if (!read_ok) {
      throw EngineHalted();  // device died mid-recovery; retry replays
    }
    RL_CHECK_MSG(PageValid(page, p) &&
                     ReadPageHeader(page).type == PageType::kJournalIds &&
                     LoadScalar<uint64_t>(page, kJournalSeqOff) == seq,
                 "journal id page " << p << " corrupt or stale for seq "
                                    << seq);
    const size_t n =
        std::min<size_t>(count - info.entries.size(), journal_.ids_per_page);
    for (size_t i = 0; i < n; ++i) {
      info.entries.push_back(DecodeJournalEntry(
          LoadScalar<uint64_t>(page, kJournalIdPageIdsOff + i * 8)));
    }
  }
  co_return info;
}

Task<void> Database::ReplayJournal(const JournalHeaderInfo& header) {
  // The checkpoint committed but its in-place writes may be incomplete:
  // copy every journaled page image into place, walking the packed images
  // by their lengths and zero-filling each back to a page.
  const uint32_t page_bytes = options_.profile.page_bytes;
  std::vector<uint8_t> image(page_bytes);
  uint64_t lba = PageLba(journal_.id_pages, page_bytes);
  for (const JournalEntry& e : header.entries) {
    const size_t len = size_t{e.sectors} * kSectorSize;
    RL_CHECK_MSG(e.sectors > 0 && len <= page_bytes,
                 "journal image of page " << e.page_id << " spans "
                                          << e.sectors << " sectors");
    std::fill(image.begin() + static_cast<ptrdiff_t>(len), image.end(),
              uint8_t{0});
    const BlockStatus st = co_await data_dev_.Read(
        lba, std::span<uint8_t>(image.data(), len));
    if (st != BlockStatus::kOk) {
      // Device died mid-recovery (power cut or disk fault during replay):
      // machine death, not corruption. The journal is untouched, so the
      // next recovery attempt replays it from the start.
      throw EngineHalted();
    }
    RL_CHECK_MSG(PageValid(image, e.page_id),
                 "journal image at sector " << lba << " corrupt for page "
                                            << e.page_id);
    co_await WritePageOrHalt(e.page_id, image, /*fua=*/false);
    stats_.repaired_from_journal.Add();
    lba += e.sectors;
  }
  co_await data_dev_.Flush();
  // Persist the embedded metadata into the regular slots so the next open is
  // clean even if this one dies before its post-recovery checkpoint.
  co_await WriteMeta(header.meta);
}

// --- Recovery ----------------------------------------------------------------

Task<void> Database::FormatFresh() {
  meta_ = MetaContent{};
  meta_.seq = 1;
  meta_.root_page = 0;
  meta_.next_free_page = options_.journal_pages;  // data pages follow journal
  meta_.replay_block = 0;
  meta_.replay_lsn = 1;
  meta_.page_bytes = options_.profile.page_bytes;
  co_await WriteMeta(meta_);
  co_await data_dev_.Flush();
  root_ = 0;
  next_free_page_ = meta_.next_free_page;
  wal_->ResumeAt(/*next_block=*/0, /*next_lsn=*/1);
}

Task<void> Database::Recover() {
  rlsim::SpanScope recover_span(sim_, "db", "recover", 0);
  tree_ = std::make_unique<BTree>(*pool_, options_.profile.value_bytes,
                                  &next_free_page_);
  auto meta = co_await ReadBestMeta();
  // The journal header page (and, for a journal to replay, its id pages) is
  // read exactly once per recovery; the parsed result feeds the replay
  // decision, the embedded metadata, and the fuzzy redo horizons below.
  const uint64_t durable_seq = meta.has_value() ? meta->seq : 0;
  const JournalHeaderInfo jh = co_await ReadJournalHeader(durable_seq);
  if (jh.valid && jh.meta.seq > durable_seq) {
    co_await ReplayJournal(jh);
    meta = jh.meta;
  }
  if (!meta.has_value()) {
    co_await FormatFresh();
    co_return;
  }
  RL_CHECK_MSG(meta->page_bytes == options_.profile.page_bytes,
               "page size mismatch: on-disk " << meta->page_bytes
                                              << ", profile "
                                              << options_.profile.page_bytes);
  meta_ = *meta;
  root_ = meta_.root_page;
  next_free_page_ = meta_.next_free_page;

  // Replay the committed suffix of the WAL. kPrepare records whose txn has
  // neither a commit nor an abort record are in doubt: their write-sets are
  // rebuilt (not applied) and held under locks until the 2PC coordinator's
  // decision arrives (presumed abort when it never does).
  const uint64_t scan_span =
      sim_.EmitSpanBegin("db", "recover-scan", meta_.replay_block);
  const LogScanResult scan =
      co_await ScanLog(log_dev_, options_.profile, meta_.replay_block);
  sim_.EmitSpanEnd(scan_span, "db", "recover-scan", scan.records.size());
  std::unordered_set<uint64_t> committed;
  std::unordered_set<uint64_t> aborted;
  std::map<uint64_t, uint64_t> prepared;  // txn id -> global id
  uint64_t max_txn_id = 0;
  for (const LogRecord& rec : scan.records) {
    max_txn_id = std::max(max_txn_id, rec.txn_id);
    switch (rec.type) {
      case LogRecordType::kCommit:
        committed.insert(rec.txn_id);
        break;
      case LogRecordType::kAbort:
        aborted.insert(rec.txn_id);
        break;
      case LogRecordType::kPrepare:
        prepared.emplace(rec.txn_id, rec.key);
        break;
      case LogRecordType::kUpdate:
      case LogRecordType::kDelete:
        break;
    }
  }
  std::map<uint64_t, Txn> in_doubt;
  for (const auto& [txn_id, global_id] : prepared) {
    if (committed.contains(txn_id) || aborted.contains(txn_id)) {
      continue;
    }
    Txn t;
    t.id = txn_id;
    t.prepared = true;
    t.global_id = global_id;
    in_doubt.emplace(txn_id, std::move(t));
  }
  // Pass 2: rebuild in-doubt write-sets (never horizon-gated — their ops
  // were not applied, so no checkpoint captured them) and collect the redo
  // candidates: committed data records, in scan (= LSN) order.
  std::vector<size_t> candidates;
  candidates.reserve(scan.records.size());
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const LogRecord& rec = scan.records[i];
    const auto doubt = in_doubt.find(rec.txn_id);
    if (doubt != in_doubt.end()) {
      // Rebuild the in-doubt write-set instead of applying it.
      Txn& t = doubt->second;
      if (t.first_lsn == 0) {
        t.first_lsn = rec.lsn;  // records arrive in LSN order
      }
      if (rec.type == LogRecordType::kUpdate ||
          rec.type == LogRecordType::kDelete) {
        if (rec.type == LogRecordType::kDelete) {
          t.ops.push_back(WriteOp{.is_delete = true, .key = rec.key});
        } else {
          AddPut(t, rec.key, rec.value);
        }
      }
      continue;
    }
    if (rec.type != LogRecordType::kUpdate &&
        rec.type != LogRecordType::kDelete) {
      continue;
    }
    if (!committed.contains(rec.txn_id)) {
      continue;
    }
    candidates.push_back(i);
  }

  // Redo horizons: a candidate at or below its slice's horizon is already
  // captured by the recovered checkpoint's pages. The fuzzy per-slice array
  // from the journal header is usable only when that header belongs to the
  // checkpoint we actually recovered (seq match); anything else degrades to
  // the global replay point, which is always sound (replay is idempotent).
  std::array<uint64_t, kRedoSlices> horizons;
  horizons.fill(meta_.replay_lsn > 0 ? meta_.replay_lsn - 1 : 0);
  if (options_.recovery.use_fuzzy_horizons && jh.valid &&
      jh.meta.seq == meta_.seq) {
    horizons = jh.horizons;
  }

  co_await Redo(scan.records, candidates, horizons);
  // Resume above every LSN the recovered checkpoint captured. An empty tail
  // (a cut right after a checkpoint whose replay block is still unwritten)
  // scans no records, and restarting the LSNs at 1 would put every later
  // commit at or below a horizon: the next recovery would skip it.
  const uint64_t resume_lsn = std::max(
      {scan.next_lsn, meta_.replay_lsn,
       *std::max_element(horizons.begin(), horizons.end()) + 1});
  wal_->ResumeAt(scan.next_block, resume_lsn);

  // Adopt the in-doubt txns before any checkpoint runs: their first_lsn
  // values are what hold the replay point at (or before) their prepare
  // records, and their locks must be in place before new clients arrive.
  // Ids never collide with fresh txns because next_txn_id_ starts past every
  // id still visible in the replayable log region (reusing a resident
  // in-doubt id would misattribute its old records at the next replay).
  next_txn_id_ = std::max(next_txn_id_, max_txn_id + 1);
  for (auto& [id, t] : in_doubt) {
    for (const WriteOp& op : t.ops) {
      const bool got = co_await locks_->Acquire(id, op.key);
      RL_CHECK_MSG(got, "in-doubt lock re-acquisition cannot contend");
    }
    stats_.in_doubt_recovered.Add();
    txns_.emplace(id, std::move(t));
  }

  // Persist the recovered state so the next crash replays less.
  if (!scan.records.empty() || pool_->dirty_count() > 0) {
    // rapicheck: lock-ok (the apparent locks_ -> apply_mutex_ inversion is
    // a name merge: Commit's apply-section calls BTree::Remove, which
    // rapicheck conflates with Database::Remove's lock acquisition)
    auto guard = co_await apply_mutex_->Lock();
    co_await CheckpointLocked();
  }
}

Task<void> Database::ApplyRecord(const LogRecord& rec) {
  switch (rec.type) {
    case LogRecordType::kUpdate:
      root_ = co_await tree_->Put(root_, rec.key, rec.value);
      break;
    case LogRecordType::kDelete:
      root_ = co_await tree_->Remove(root_, rec.key);
      break;
    case LogRecordType::kCommit:
    case LogRecordType::kPrepare:
    case LogRecordType::kAbort:
      break;  // control records carry no tree mutation
  }
}

Task<void> Database::Redo(const std::vector<LogRecord>& records,
                          const std::vector<size_t>& candidates,
                          const std::array<uint64_t, kRedoSlices>& horizons) {
  // Phase A — partition and reduce. Candidates are bucketed by key slice
  // into K streams (contiguous slice ranges, so the persisted per-slice
  // horizons apply unchanged at any K); worker coroutines then reduce each
  // stream to its net effect: the last record for a key wins. All records
  // of a key share one slice, hence one stream and one horizon, so
  // filter-then-reduce equals reduce-then-filter and the net-op set is
  // independent of K and of the worker count.
  const uint32_t streams = std::min(options_.recovery.partitions, kRedoSlices);
  rlsim::SpanScope span(sim_, "db", "redo-partitioned", streams);
  struct Stream {
    std::vector<size_t> candidates;            // indices, LSN order
    std::map<uint64_t, const LogRecord*> net;  // key -> winning record
    uint64_t replayed = 0;
    uint64_t skipped = 0;
  };
  std::vector<Stream> plan(streams);
  for (const size_t idx : candidates) {
    const uint32_t slice = RedoSliceOf(records[idx].key);
    plan[slice * streams / kRedoSlices].candidates.push_back(idx);
  }

  // One redo worker coroutine (simulated recovery core) per stream.
  size_t next_stream = 0;
  rlsim::TaskGroup group(sim_);
  for (uint32_t w = 0; w < streams; ++w) {
    group.Spawn(
        [](Database& db, const std::vector<LogRecord>& records,
           const std::array<uint64_t, kRedoSlices>& horizons,
           std::vector<Stream>& plan, size_t& next_stream) -> Task<void> {
          while (next_stream < plan.size()) {
            Stream& s = plan[next_stream++];
            for (const size_t idx : s.candidates) {
              const LogRecord& rec = records[idx];
              co_await db.cpu_.Compute(db.options_.profile.cpu_per_redo);
              if (rec.lsn <= horizons[RedoSliceOf(rec.key)]) {
                ++s.skipped;
                continue;
              }
              s.net[rec.key] = &rec;  // later record for the key wins
              ++s.replayed;
            }
          }
        }(*this, records, horizons, plan, next_stream),
        "redo-stream");
  }
  co_await group.Join();

  // Phase B — canonical install. Stream key sets are disjoint (a key maps
  // to exactly one stream), so merging the net-op maps and applying them in
  // ascending key order yields one fixed tree, byte-identical at any
  // partition or worker count. The ascending order also turns the installs'
  // page reads into one sweep over the tree.
  std::map<uint64_t, const LogRecord*> net;
  for (Stream& s : plan) {
    stats_.recovered_records.Add(static_cast<int64_t>(s.replayed));
    stats_.redo_skipped_by_horizon.Add(static_cast<int64_t>(s.skipped));
    net.merge(s.net);
  }
  rlsim::SpanScope install_span(sim_, "db", "redo-install", net.size());
  for (const auto& [key, rec] : net) {
    co_await ApplyRecord(*rec);
    stats_.redo_installed_ops.Add();
    if (pool_->dirty_count() >= dirty_throttle_pages_) {
      auto guard = co_await apply_mutex_->Lock();
      co_await CheckpointLocked();
    }
  }
}

// --- Transactions ------------------------------------------------------------

uint64_t Database::Begin() {
  const uint64_t id = next_txn_id_++;
  Txn t;
  t.id = id;
  txns_.emplace(id, std::move(t));
  return id;
}

Task<DbStatus> Database::Get(uint64_t txn, uint64_t key,
                             std::vector<uint8_t>* value_out) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  co_await cpu_.Compute(options_.profile.cpu_per_get);
  if (!co_await locks_->Acquire(txn, key)) {
    co_await Abort(txn);
    co_return DbStatus::kLockTimeout;
  }
  // Read-your-writes: newest op in the write-set wins.
  for (auto op = it->second.ops.rbegin(); op != it->second.ops.rend(); ++op) {
    if (op->key == key) {
      if (op->is_delete) {
        co_return DbStatus::kNotFound;
      }
      if (value_out != nullptr) {
        const std::span<const uint8_t> value = ValueOf(it->second, *op);
        value_out->assign(value.begin(), value.end());
      }
      co_return DbStatus::kOk;
    }
  }
  const bool found = co_await tree_->Get(root_, key, value_out);
  co_return found ? DbStatus::kOk : DbStatus::kNotFound;
}

Task<DbStatus> Database::Put(uint64_t txn, uint64_t key,
                             std::span<const uint8_t> value) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  RL_CHECK(value.size() == options_.profile.value_bytes);
  co_await cpu_.Compute(options_.profile.cpu_per_put);
  if (!co_await locks_->Acquire(txn, key)) {
    co_await Abort(txn);
    co_return DbStatus::kLockTimeout;
  }
  AddPut(it->second, key, value);
  co_return DbStatus::kOk;
}

void Database::AddPut(Txn& t, uint64_t key, std::span<const uint8_t> value) {
  const size_t value_bytes = options_.profile.value_bytes;
  RL_CHECK(value.size() == value_bytes);
  if (t.values.empty()) {
    t.values.reserve(kWriteSetReserve * value_bytes);
  }
  t.ops.push_back(WriteOp{.key = key, .value_at = t.values.size()});
  t.values.insert(t.values.end(), value.begin(), value.end());
}

std::span<const uint8_t> Database::ValueOf(const Txn& t,
                                           const WriteOp& op) const {
  if (op.is_delete) {
    return {};
  }
  return std::span<const uint8_t>(t.values)
      .subspan(op.value_at, options_.profile.value_bytes);
}

Task<DbStatus> Database::Remove(uint64_t txn, uint64_t key) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  co_await cpu_.Compute(options_.profile.cpu_per_put);
  if (!co_await locks_->Acquire(txn, key)) {
    co_await Abort(txn);
    co_return DbStatus::kLockTimeout;
  }
  it->second.ops.push_back(WriteOp{.is_delete = true, .key = key});
  co_return DbStatus::kOk;
}

Task<DbStatus> Database::Commit(uint64_t txn) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  Txn& t = it->second;
  RL_CHECK_MSG(!t.prepared,
               "Commit() on a prepared txn; decisions go through "
               "CommitPrepared/Abort/ResolveInDoubt");
  const TimePoint start = sim_.now();
  co_await cpu_.Compute(options_.profile.cpu_per_commit);

  if (t.ops.empty()) {
    locks_->ReleaseAll(txn);
    txns_.erase(it);
    // rapicheck: ack-ok (read-only commit: no records were written, so
    // there is nothing to make durable before acknowledging)
    stats_.commits.Add();
    stats_.commit_latency.RecordDuration(sim_.now() - start);
    co_return DbStatus::kOk;
  }

  t.committing = true;
  // Log every operation, then the commit record.
  for (const WriteOp& op : t.ops) {
    const uint64_t lsn = wal_->Append(
        op.is_delete ? LogRecordType::kDelete : LogRecordType::kUpdate, txn,
        op.key, ValueOf(t, op));
    if (t.first_lsn == 0) {
      t.first_lsn = lsn;
    }
  }
  const uint64_t commit_lsn = wal_->Append(LogRecordType::kCommit, txn, 0);

  co_await wal_->WaitDurable(commit_lsn);

  // Dirty-page throttle: never let the apply outrun what a checkpoint can
  // journal (InnoDB-style furious-flushing backstop).
  co_await ThrottleDirtyPages();

  // Apply the write-set to the tree under the apply/checkpoint mutex.
  {
    auto guard = co_await apply_mutex_->Lock();
    for (const WriteOp& op : t.ops) {
      if (op.is_delete) {
        root_ = co_await tree_->Remove(root_, op.key);
      } else {
        root_ = co_await tree_->Put(root_, op.key, ValueOf(t, op));
      }
    }
  }

  locks_->ReleaseAll(txn);
  txns_.erase(it);
  stats_.commits.Add();
  stats_.commit_latency.RecordDuration(sim_.now() - start);
  MaybeScheduleCheckpoint();
  co_return DbStatus::kOk;
}

Task<void> Database::Abort(uint64_t txn) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return;
  }
  if (it->second.prepared) {
    // Best-effort resolution record: never waited on (presumed abort makes
    // its loss safe), but when it lands, the next recovery skips re-entering
    // doubt — and re-querying the coordinator — for this txn.
    wal_->Append(LogRecordType::kAbort, txn, it->second.global_id);
  }
  locks_->ReleaseAll(txn);
  txns_.erase(it);
  stats_.aborts.Add();
}

// --- Two-phase commit (participant half) -------------------------------------

Task<DbStatus> Database::Prepare(uint64_t txn, uint64_t global_id) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  Txn& t = it->second;
  RL_CHECK_MSG(!t.prepared, "double Prepare on txn " << txn);
  co_await cpu_.Compute(options_.profile.cpu_per_commit);

  // Log the write-set followed by the prepare record; the durable prepare IS
  // the yes-vote. An empty write-set still logs the prepare: the vote must
  // survive a crash, because the coordinator may commit on the strength of
  // it.
  for (const WriteOp& op : t.ops) {
    const uint64_t lsn = wal_->Append(
        op.is_delete ? LogRecordType::kDelete : LogRecordType::kUpdate, txn,
        op.key, ValueOf(t, op));
    if (t.first_lsn == 0) {
      t.first_lsn = lsn;
    }
  }
  const uint64_t prep_lsn =
      wal_->Append(LogRecordType::kPrepare, txn, global_id);
  if (t.first_lsn == 0) {
    t.first_lsn = prep_lsn;
  }
  co_await wal_->WaitDurable(prep_lsn);

  t.prepared = true;
  t.global_id = global_id;
  stats_.prepares.Add();
  co_return DbStatus::kOk;
}

Task<DbStatus> Database::CommitPrepared(uint64_t txn) {
  const auto it = txns_.find(txn);
  if (it == txns_.end()) {
    co_return DbStatus::kTxnNotActive;
  }
  Txn& t = it->second;
  RL_CHECK_MSG(t.prepared, "CommitPrepared on an unprepared txn " << txn);
  if (t.deciding) {
    co_return DbStatus::kTxnNotActive;  // duplicate decision mid-apply
  }
  t.deciding = true;
  const TimePoint start = sim_.now();

  // The write-set is already durable behind the prepare record; only the
  // commit record is new.
  const uint64_t commit_lsn = wal_->Append(LogRecordType::kCommit, txn, 0);
  co_await wal_->WaitDurable(commit_lsn);
  co_await ThrottleDirtyPages();

  {
    auto guard = co_await apply_mutex_->Lock();
    for (const WriteOp& op : t.ops) {
      if (op.is_delete) {
        root_ = co_await tree_->Remove(root_, op.key);
      } else {
        root_ = co_await tree_->Put(root_, op.key, ValueOf(t, op));
      }
    }
  }

  locks_->ReleaseAll(txn);
  txns_.erase(it);
  stats_.commits.Add();
  stats_.commit_latency.RecordDuration(sim_.now() - start);
  MaybeScheduleCheckpoint();
  co_return DbStatus::kOk;
}

std::vector<uint64_t> Database::InDoubtGlobalIds() const {
  std::vector<uint64_t> ids;
  for (const auto& [id, t] : txns_) {
    if (t.prepared && !t.deciding) {
      ids.push_back(t.global_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Task<DbStatus> Database::ResolveInDoubt(uint64_t global_id, bool commit) {
  uint64_t local = 0;
  bool found = false;
  for (const auto& [id, t] : txns_) {
    if (t.prepared && !t.deciding && t.global_id == global_id) {
      local = id;
      found = true;
      break;
    }
  }
  if (!found) {
    co_return DbStatus::kTxnNotActive;
  }
  if (commit) {
    co_return co_await CommitPrepared(local);
  }
  co_await Abort(local);
  co_return DbStatus::kOk;
}

// --- Checkpoint ----------------------------------------------------------------

void Database::MaybeScheduleCheckpoint() {
  if (closing_ || wal_->halted() || checkpoint_pending_ ||
      pool_->dirty_count() < options_.profile.checkpoint_dirty_pages) {
    return;
  }
  checkpoint_pending_ = true;
  sim_.Spawn(
      [](Database& db) -> Task<void> {
        try {
          co_await db.Checkpoint();
        } catch (const rlsim::CheckFailure&) {
          throw;  // a broken invariant, not a dead machine
        } catch (...) {
          // Machine died mid-checkpoint; the journal makes this safe and the
          // harness will reopen the database.
        }
        db.checkpoint_pending_ = false;
        db.checkpoint_done_->NotifyAll();
      }(*this),
      "db-checkpoint");
}

Task<void> Database::Checkpoint() {
  auto ckpt_guard = co_await checkpoint_mutex_->Lock();
  StagedCheckpoint staged;
  {
    auto guard = co_await apply_mutex_->Lock();
    staged = StageCheckpoint();
  }
  co_await PersistCheckpoint(std::move(staged));
}

Task<void> Database::CheckpointLocked() {
  // Recovery path: the caller already holds the apply mutex and runs alone.
  co_await PersistCheckpoint(StageCheckpoint());
}

Database::StagedCheckpoint Database::StageCheckpoint() {
  StagedCheckpoint staged;
  std::vector<BufferPool::Frame*> dirty = pool_->DirtyFrames();
  // The throttle is soft: commits that passed it together can apply past
  // it. The journal still takes the set while its packed images fit.
  const uint32_t page_bytes = options_.profile.page_bytes;
  staged.pages.resize(dirty.size());
  uint64_t sectors = 0;
  for (size_t i = 0; i < dirty.size(); ++i) {
    const size_t used =
        PageUsedBytes(dirty[i]->data, options_.profile.value_bytes);
    JournalEntry& e = staged.pages[i].entry;
    e.page_id = dirty[i]->page_id;
    e.sectors = static_cast<uint32_t>((used + kSectorSize - 1) / kSectorSize);
    sectors += e.sectors;
  }
  RL_CHECK_MSG(dirty.size() <= journal_.id_room &&
                   sectors <= uint64_t{journal_.capacity} * page_bytes /
                                  kSectorSize,
               "checkpoint of " << dirty.size() << " pages (" << sectors
                                << " sectors) overflows the journal");

  // Replay point: everything applied so far is captured by this snapshot;
  // transactions whose records are logged but not yet applied must replay.
  uint64_t replay_lsn = wal_->next_lsn();
  for (const auto& [id, t] : txns_) {
    if (t.first_lsn != 0) {
      replay_lsn = std::min(replay_lsn, t.first_lsn);
    }
  }
  // Block bound: exact when no transaction is mid-commit; otherwise fall
  // back to the previous checkpoint's start (correct because replay is
  // idempotent, merely conservative).
  const uint64_t replay_block = (replay_lsn == wal_->next_lsn())
                                    ? wal_->current_block_index()
                                    : meta_.replay_block;

  staged.meta = meta_;
  staged.meta.seq = meta_.seq + 1;
  staged.meta.root_page = root_;
  staged.meta.next_free_page = next_free_page_;
  staged.meta.replay_block = replay_block;
  staged.meta.replay_lsn = replay_lsn;
  staged.meta.page_bytes = options_.profile.page_bytes;

  // Fuzzy redo horizons: per slice, the highest LSN this snapshot fully
  // captures. Everything applied so far is in the staged pages, so every
  // slice starts at next_lsn - 1; a resident transaction with logged but
  // unapplied records (mid-commit or prepared in-doubt — the latter pin the
  // global replay point arbitrarily far back) drags down only the slices
  // its keys actually touch. Untouched slices keep the high horizon, which
  // is exactly the recovery-time win over the global replay point.
  const uint64_t captured = wal_->next_lsn() > 0 ? wal_->next_lsn() - 1 : 0;
  staged.horizons.fill(captured);
  for (const auto& [id, t] : txns_) {
    if (t.first_lsn == 0) {
      continue;
    }
    for (const WriteOp& op : t.ops) {
      const uint32_t s = RedoSliceOf(op.key);
      staged.horizons[s] = std::min(staged.horizons[s], t.first_lsn - 1);
    }
  }

  // Each image is the frame's used prefix with a zeroed tail, so the page
  // written in place, its journal image and its CRC all describe one
  // canonical page, and the journal needs only the prefix.
  for (size_t i = 0; i < dirty.size(); ++i) {
    BufferPool::Frame* f = dirty[i];
    StagedPage& page = staged.pages[i];
    const size_t used = PageUsedBytes(f->data, options_.profile.value_bytes);
    page.image.reserve(page_bytes);
    page.image.assign(f->data.begin(),
                      f->data.begin() + static_cast<ptrdiff_t>(used));
    page.image.resize(page_bytes);
    SealPage(page.image, f->page_id);
    pool_->Stage(f, page.image);
    pool_->MarkClean(f);
  }
  return staged;
}

Task<void> Database::WritePageOrHalt(uint64_t page_id,
                                     std::span<const uint8_t> image,
                                     bool fua) {
  const bool ok = co_await pool_->WritePageDirect(page_id, image, fua);
  if (!ok) {
    throw EngineHalted();
  }
}

std::vector<std::vector<uint8_t>> Database::EncodeJournal(
    const StagedCheckpoint& staged) const {
  const uint32_t page_bytes = options_.profile.page_bytes;
  const size_t count = staged.pages.size();
  std::vector<std::vector<uint8_t>> pages(
      1 + SpillIdPages(journal_, count), std::vector<uint8_t>(page_bytes, 0));
  std::vector<uint8_t>& header = pages[0];
  PageHeader ph;
  ph.page_id = kJournalHeaderPage;
  ph.type = PageType::kJournalHeader;
  WritePageHeader(header, ph);
  StoreScalar<uint64_t>(header, kJournalSeqOff, staged.meta.seq);
  StoreScalar<uint32_t>(header, kJournalCountOff,
                        static_cast<uint32_t>(count));
  for (uint32_t s = 0; s < kRedoSlices; ++s) {
    StoreScalar<uint64_t>(header, kJournalHorizonOff + s * 8,
                          staged.horizons[s]);
  }
  const std::vector<uint8_t> meta_blob = SerializeMeta(staged.meta);
  std::copy(meta_blob.begin(), meta_blob.end(),
            header.begin() + static_cast<ptrdiff_t>(kJournalMetaOff));
  for (size_t p = 1; p < pages.size(); ++p) {
    ph.page_id = p;
    ph.type = PageType::kJournalIds;
    WritePageHeader(pages[p], ph);
    StoreScalar<uint64_t>(pages[p], kJournalSeqOff, staged.meta.seq);
  }
  for (size_t i = 0; i < count; ++i) {
    const uint64_t id = EncodeJournalEntry(staged.pages[i].entry);
    if (i < journal_.header_ids) {
      StoreScalar<uint64_t>(header, kJournalHeaderIdsOff + i * 8, id);
    } else {
      const size_t spill = i - journal_.header_ids;
      StoreScalar<uint64_t>(pages[1 + spill / journal_.ids_per_page],
                            kJournalIdPageIdsOff +
                                spill % journal_.ids_per_page * 8,
                            id);
    }
  }
  for (size_t p = 0; p < pages.size(); ++p) {
    SealPage(pages[p], p);
  }
  return pages;
}

Task<void> Database::PersistCheckpoint(StagedCheckpoint staged) {
  try {
    // Write-ahead rule for the checkpoint: the log covering everything
    // staged must be durable before the staged pages overwrite old state.
    co_await wal_->Force();

    // 1. Id pages, then the images packed back to back after them, then one
    //    flush: the whole page-id list is durable before the header names
    //    it. One sequential stream of used sectors only.
    const uint32_t page_bytes = options_.profile.page_bytes;
    const uint32_t page_sectors = page_bytes / kSectorSize;
    const std::vector<std::vector<uint8_t>> id_pages = EncodeJournal(staged);
    for (size_t p = 1; p < id_pages.size(); ++p) {
      co_await WritePageOrHalt(p, id_pages[p], /*fua=*/false);
    }
    uint64_t lba = PageLba(journal_.id_pages, page_bytes);
    for (const StagedPage& page : staged.pages) {
      const bool ok = co_await pool_->WriteImageDirect(
          lba,
          std::span<const uint8_t>(page.image.data(),
                                   size_t{page.entry.sectors} * kSectorSize),
          /*fua=*/false);
      if (!ok) {
        throw EngineHalted();
      }
      lba += page.entry.sectors;
    }
    co_await data_dev_.Flush();

    // 2. Journal header (commits the checkpoint).
    co_await WritePageOrHalt(kJournalHeaderPage, id_pages[0], /*fua=*/true);
    stats_.journal_sectors.Add(static_cast<int64_t>(
        lba - PageLba(journal_.id_pages, page_bytes) +
        uint64_t{page_sectors} * id_pages.size()));

    // 3. Pages in place, from the staged images. Each image is freed once
    //    written: from here on the device, not host memory, backs it.
    for (StagedPage& page : staged.pages) {
      co_await WritePageOrHalt(page.entry.page_id, page.image,
                               /*fua=*/false);
      pool_->Unstage(page.entry.page_id);
      std::vector<uint8_t>().swap(page.image);
    }
    co_await data_dev_.Flush();

    // 4. Metadata flips to the new checkpoint.
    co_await WriteMeta(staged.meta);
    co_await data_dev_.Flush();
  } catch (...) {
    pool_->EndCheckpoint();
    throw;
  }
  pool_->EndCheckpoint();
  meta_ = staged.meta;
  stats_.checkpoints.Add();
}

// --- Introspection -------------------------------------------------------------

Task<bool> Database::ReadCommitted(uint64_t key, std::vector<uint8_t>* out) {
  co_return co_await tree_->Get(root_, key, out);
}

Task<uint64_t> Database::CommittedCount() {
  co_return co_await tree_->Count(root_);
}

Task<void> Database::CheckTreeStructure() {
  co_await tree_->CheckStructure(root_);
}

Task<uint64_t> Database::ContentHash() {
  // FNV-1a over (key, value) pairs in ascending key order. Depends only on
  // the committed contents, not the physical page layout — sequential and
  // partitioned redo build structurally different trees from the same log.
  uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](const uint8_t* data, size_t len) {
    for (size_t i = 0; i < len; ++i) {
      hash ^= data[i];
      hash *= 1099511628211ull;
    }
  };
  co_await tree_->Scan(
      root_, 0, UINT64_MAX,
      [&mix](uint64_t key, std::span<const uint8_t> value) {
        // Keys are mixed in explicit little-endian byte order so the hash
        // is a property of the contents, not the host representation.
        uint8_t key_bytes[sizeof(key)];
        for (size_t i = 0; i < sizeof(key); ++i) {
          key_bytes[i] = static_cast<uint8_t>(key >> (8 * i));
        }
        mix(key_bytes, sizeof(key));
        mix(value.data(), value.size());
        return true;
      });
  co_return hash;
}

}  // namespace rldb
