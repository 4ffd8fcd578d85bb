// On-disk layout of the data device and helpers for page headers and the
// metadata sectors.
//
// Data device:
//   sector 0, 1        — two alternating metadata slots (pick highest valid
//                        sequence number at open; a torn meta write leaves
//                        the other slot intact)
//   page 0             — checkpoint-journal header page (the commit point)
//   pages 1..N-1       — checkpoint-journal id pages (the page-id list,
//                        continued past the header)
//   pages N..J-1       — checkpoint-journal image area: each staged page's
//                        used prefix in whole sectors, packed back to back
//                        from the first sector of page N
//   pages J..          — B+-tree pages
// where page p starts at sector kFirstPageSector + p * (page_bytes / 512),
// J is DbOptions::journal_pages, and N comes from JournalLayoutFor below.
//
// Every page embeds {page_id, crc} in its header so torn pages are detected
// at read time and repairable from the checkpoint journal. A checkpoint
// writes each page canonically: the bytes past its used length (see
// PageUsedBytes) are zero, so the journal can drop that tail and recovery
// zero-fills it back under the same CRC.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/sim/bytes.h"
#include "src/sim/check.h"
#include "src/sim/crc32.h"
#include "src/storage/block.h"

namespace rldb {

inline constexpr uint64_t kMetaSectorA = 0;
inline constexpr uint64_t kMetaSectorB = 1;
inline constexpr uint64_t kFirstPageSector = 16;

// Page types.
enum class PageType : uint8_t {
  kFree = 0,
  kLeaf = 1,
  kInternal = 2,
  kJournalHeader = 3,
  kJournalData = 4,
  kJournalIds = 5,
};

// Fixed 32-byte page header.
struct PageHeader {
  uint64_t page_id = 0;
  uint32_t crc = 0;  // over the page with this field zeroed
  PageType type = PageType::kFree;
  uint8_t level = 0;
  uint16_t nkeys = 0;
  uint64_t next_leaf = 0;
};

inline constexpr size_t kPageHeaderBytes = 32;

using rlsim::LoadScalar;
using rlsim::StoreScalar;

inline PageHeader ReadPageHeader(std::span<const uint8_t> page) {
  PageHeader h;
  h.page_id = LoadScalar<uint64_t>(page, 0);
  h.crc = LoadScalar<uint32_t>(page, 8);
  h.type = static_cast<PageType>(LoadScalar<uint8_t>(page, 12));
  h.level = LoadScalar<uint8_t>(page, 13);
  h.nkeys = LoadScalar<uint16_t>(page, 14);
  h.next_leaf = LoadScalar<uint64_t>(page, 16);
  return h;
}

inline void WritePageHeader(std::span<uint8_t> page, const PageHeader& h) {
  StoreScalar<uint64_t>(page, 0, h.page_id);
  StoreScalar<uint32_t>(page, 8, h.crc);
  StoreScalar<uint8_t>(page, 12, static_cast<uint8_t>(h.type));
  StoreScalar<uint8_t>(page, 13, h.level);
  StoreScalar<uint16_t>(page, 14, h.nkeys);
  StoreScalar<uint64_t>(page, 16, h.next_leaf);
}

// Computes the page CRC with the stored crc field treated as zero.
inline uint32_t ComputePageCrc(std::span<const uint8_t> page) {
  const uint8_t zero[4] = {};
  uint32_t crc = rlsim::Crc32c(page.subspan(0, 8));
  crc = rlsim::Crc32c(zero, crc);
  crc = rlsim::Crc32c(page.subspan(12), crc);
  return crc;
}

// Stamps page_id + crc into a page held as its first bytes, `prefix`, the
// rest of its `page_bytes` being zero: the CRC covers the whole page, so the
// prefix zero-filled back to a page is PageValid. A checkpoint seals the
// used prefix it stages this way.
inline void SealPagePrefix(std::span<uint8_t> prefix, uint64_t page_id,
                           size_t page_bytes) {
  static constexpr uint8_t kZeros[rlstor::kSectorSize] = {};
  RL_CHECK(prefix.size() >= kPageHeaderBytes && prefix.size() <= page_bytes);
  StoreScalar<uint64_t>(prefix, 0, page_id);
  StoreScalar<uint32_t>(prefix, 8, 0);
  uint32_t crc = rlsim::Crc32c(prefix);
  for (size_t left = page_bytes - prefix.size(); left > 0;) {
    const size_t n = std::min(left, sizeof(kZeros));
    crc = rlsim::Crc32c(std::span<const uint8_t>(kZeros, n), crc);
    left -= n;
  }
  StoreScalar<uint32_t>(prefix, 8, crc);
}

// Stamps page_id + crc into the page image (call just before writing out).
inline void SealPage(std::span<uint8_t> page, uint64_t page_id) {
  SealPagePrefix(page, page_id, page.size());
}

inline bool PageValid(std::span<const uint8_t> page, uint64_t expect_id) {
  const PageHeader h = ReadPageHeader(page);
  return h.page_id == expect_id && h.crc == ComputePageCrc(page);
}

// Bytes of a B+-tree page that hold data: the header plus the node's
// entries (btree.h node layout). The rest is the node's free tail, which
// may still hold entries a split or delete moved away. Pages of any other
// type count as full.
inline size_t PageUsedBytes(std::span<const uint8_t> page,
                            uint32_t value_bytes) {
  const PageHeader h = ReadPageHeader(page);
  size_t used = page.size();
  if (h.type == PageType::kLeaf) {
    used = kPageHeaderBytes + h.nkeys * (8ull + value_bytes);
  } else if (h.type == PageType::kInternal) {
    used = kPageHeaderBytes + 8 + h.nkeys * 16ull;
  }
  RL_CHECK(used <= page.size());
  return used;
}

// Database metadata, persisted in a 512-byte sector slot.
struct MetaContent {
  uint64_t seq = 0;              // checkpoint sequence number
  uint64_t root_page = 0;        // 0 = empty tree
  uint64_t next_free_page = 0;   // page allocator watermark
  uint64_t replay_block = 0;     // first log block recovery must scan
  uint64_t replay_lsn = 0;       // informational lower bound
  uint32_t page_bytes = 0;       // engine page size (sanity-checked at open)
};

inline std::vector<uint8_t> SerializeMeta(const MetaContent& m) {
  std::vector<uint8_t> buf(rlstor::kSectorSize, 0);
  StoreScalar<uint32_t>(buf, 0, 0x524C4442);  // "RLDB"
  StoreScalar<uint64_t>(buf, 4, m.seq);
  StoreScalar<uint64_t>(buf, 12, m.root_page);
  StoreScalar<uint64_t>(buf, 20, m.next_free_page);
  StoreScalar<uint64_t>(buf, 28, m.replay_block);
  StoreScalar<uint64_t>(buf, 36, m.replay_lsn);
  StoreScalar<uint32_t>(buf, 44, m.page_bytes);
  const uint32_t crc =
      rlsim::Crc32c(std::span<const uint8_t>(buf.data(), 48));
  StoreScalar<uint32_t>(buf, 48, crc);
  return buf;
}

inline std::optional<MetaContent> DeserializeMeta(
    std::span<const uint8_t> buf) {
  if (buf.size() < 52 || LoadScalar<uint32_t>(buf, 0) != 0x524C4442) {
    return std::nullopt;
  }
  const uint32_t crc = rlsim::Crc32c(buf.subspan(0, 48));
  if (crc != LoadScalar<uint32_t>(buf, 48)) {
    return std::nullopt;
  }
  MetaContent m;
  m.seq = LoadScalar<uint64_t>(buf, 4);
  m.root_page = LoadScalar<uint64_t>(buf, 12);
  m.next_free_page = LoadScalar<uint64_t>(buf, 20);
  m.replay_block = LoadScalar<uint64_t>(buf, 28);
  m.replay_lsn = LoadScalar<uint64_t>(buf, 36);
  m.page_bytes = LoadScalar<uint32_t>(buf, 44);
  return m;
}

// First sector of page `page_id`.
inline uint64_t PageLba(uint64_t page_id, uint32_t page_bytes) {
  return kFirstPageSector + page_id * (page_bytes / rlstor::kSectorSize);
}

// --- Redo partitioning -------------------------------------------------------
//
// Redo records are partitioned by a fixed hash of the row key into
// kRedoSlices slices; a recovery with K redo streams groups the slices into
// K contiguous ranges. The slice count is an on-disk constant: the journal
// header page persists one low-water LSN per slice (the "fuzzy horizon"),
// so it cannot change without a format change.
inline constexpr uint32_t kRedoSlices = 64;

// Deterministic key -> slice map (splitmix-style finalizer). Must be stable
// across builds and platforms: the persisted per-slice horizons are only
// meaningful if recovery buckets keys exactly as the checkpoint did.
inline uint32_t RedoSliceOf(uint64_t key) {
  uint64_t x = key + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x & (kRedoSlices - 1));
}

// --- Checkpoint journal ------------------------------------------------------
//
// Header page (page 0) payload, after the 32-byte page header:
//   [u64 seq][u32 count][kRedoSlices * u64 horizon]
//   [serialised MetaContent sector][u64 entry ...]
// Id page (pages 1..N-1) payload: [u64 seq][u64 entry ...]
// The entry list runs through the header's id area, then id page 1, 2, ...
// in order. Entry i names a page id (low 48 bits) and the length in sectors
// of its image (the bits above). Image i is that many sectors of the sealed
// page's prefix, starting right after image i-1; image 0 starts at page N.
// A page's image covers its used bytes (PageUsedBytes) rounded up to whole
// sectors; recovery zero-fills the rest and checks the page CRC, so a torn
// or short image is caught, never trusted. Every id page carries its
// checkpoint's seq, so recovery tells a stale id page (left by an earlier
// checkpoint) from the header's own.
inline constexpr size_t kJournalSeqOff = kPageHeaderBytes;
inline constexpr size_t kJournalCountOff = kJournalSeqOff + 8;
inline constexpr size_t kJournalHorizonOff = kJournalCountOff + 4;
inline constexpr size_t kJournalMetaOff =
    kJournalHorizonOff + kRedoSlices * 8;
inline constexpr size_t kJournalHeaderIdsOff =
    kJournalMetaOff + rlstor::kSectorSize;
inline constexpr size_t kJournalIdPageIdsOff = kJournalSeqOff + 8;

// One id-list entry: a journaled page and the sectors its image spans.
struct JournalEntry {
  uint64_t page_id = 0;
  uint32_t sectors = 0;
};

inline constexpr unsigned kJournalSectorsShift = 48;

inline uint64_t EncodeJournalEntry(const JournalEntry& e) {
  RL_CHECK_MSG(e.page_id >> kJournalSectorsShift == 0,
               "page id " << e.page_id << " does not fit a journal entry");
  return e.page_id | uint64_t{e.sectors} << kJournalSectorsShift;
}

inline JournalEntry DecodeJournalEntry(uint64_t raw) {
  return JournalEntry{
      .page_id = raw & ((uint64_t{1} << kJournalSectorsShift) - 1),
      .sectors = static_cast<uint32_t>(raw >> kJournalSectorsShift)};
}

// How a journal region of `journal_pages` pages divides into id pages and
// image area: `id_pages` (header included) is the fewest pages whose id
// room covers the remaining `capacity` pages, the image area. The dirty
// throttle keeps a checkpoint below `capacity` pages, so its images fit
// even when none has a free tail; a checkpoint fits as long as its entries
// fit `id_room` and its packed images the image area.
struct JournalLayout {
  uint32_t id_pages = 1;
  uint32_t capacity = 0;      // pages in the image area
  uint32_t header_ids = 0;    // page ids the header page holds
  uint32_t ids_per_page = 0;  // page ids each further id page holds
  uint32_t id_room = 0;       // entries the header and id pages hold
};

inline JournalLayout JournalLayoutFor(uint32_t journal_pages,
                                      uint32_t page_bytes) {
  RL_CHECK(journal_pages >= 2 && page_bytes > kJournalHeaderIdsOff);
  JournalLayout j;
  j.header_ids =
      static_cast<uint32_t>((page_bytes - kJournalHeaderIdsOff) / 8);
  j.ids_per_page =
      static_cast<uint32_t>((page_bytes - kJournalIdPageIdsOff) / 8);
  while (j.header_ids + uint64_t{j.id_pages - 1} * j.ids_per_page <
         journal_pages - j.id_pages) {
    ++j.id_pages;
  }
  j.capacity = journal_pages - j.id_pages;
  j.id_room = j.header_ids + (j.id_pages - 1) * j.ids_per_page;
  return j;
}

}  // namespace rldb
