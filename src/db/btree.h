// Persisted B+-tree over the buffer pool.
//
// Keys are uint64 (callers encode a table id in the high bits); values are
// fixed-size byte slots (EngineProfile::value_bytes). Leaves are chained for
// range scans. Deletions leave nodes underfull rather than merging (the
// usual engineering simplification; documented in DESIGN.md).
//
// Node layout inside a page (after the 32-byte page header):
//   leaf:      n entries of [key u64][value V bytes]
//   internal:  child0 u64, then n entries of [key u64][child u64];
//              subtree under child i holds keys < key[i] (and >= key[i-1]).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/db/buffer_pool.h"
#include "src/sim/task.h"

namespace rldb {

class BTree {
 public:
  // `next_free_page` is the engine's page allocator watermark; the tree
  // bumps it when it needs new pages.
  BTree(BufferPool& pool, uint32_t value_bytes, uint64_t* next_free_page);

  // Allocates an empty root leaf; returns its page id.
  uint64_t CreateEmpty();

  // Returns false if the key is absent.
  rlsim::Task<bool> Get(uint64_t root, uint64_t key,
                        std::vector<uint8_t>* value_out);

  // Tree writes never suspend. Each one pins `key`'s root-to-leaf path and
  // returns 0 once the write is applied; or, finding a page on that path
  // not resident, it changes nothing and returns that page's id, which the
  // caller reads in (BufferPool::Fetch) before it retries the write.
  //
  // Inserts or overwrites, growing *root when the root splits.
  uint64_t Put(uint64_t* root, uint64_t key, std::span<const uint8_t> value);
  // Removes the key if present (the root never changes).
  uint64_t Remove(uint64_t root, uint64_t key);

  // The first page on `key`'s path down from `from` (the root, or a page on
  // that path) that is not resident in the pool, or 0 if the whole path is.
  // Synchronous, over BufferPool::Peek: it pins, latches, writes and counts
  // nothing, so it is only a hint of what a descent for `key` would read
  // right now.
  uint64_t FirstMissOnPath(uint64_t from, uint64_t key) const;

  // Visits entries with from <= key <= to in order; the visitor returns
  // false to stop early.
  rlsim::Task<void> Scan(
      uint64_t root, uint64_t from, uint64_t to,
      const std::function<bool(uint64_t, std::span<const uint8_t>)>& visit);

  // Total number of entries (full leaf walk; tests/checkers only).
  rlsim::Task<uint64_t> Count(uint64_t root);

  // Structural invariant check: key ordering within and across nodes, child
  // separators, leaf-chain order. Throws CheckFailure on violation.
  rlsim::Task<void> CheckStructure(uint64_t root);

  uint32_t leaf_capacity() const { return leaf_capacity_; }

 private:
  struct PathEntry {
    BufferPool::Frame* frame;
    uint32_t child_index;  // internal pages: the child the descent took
  };
  // A pinned root-to-leaf path, leaf last. Fixed capacity, so a descent
  // allocates nothing: even 4-key nodes (the smallest the constructor
  // allows) reach 5^16 keys in kMaxDepth levels.
  struct Path {
    static constexpr size_t kMaxDepth = 16;
    std::array<PathEntry, kMaxDepth> entries{};
    size_t depth = 0;
  };

  uint64_t AllocPage();
  // Pins `key`'s path from `root` into `path` and returns 0; or, at the
  // first page not resident, unpins what it pinned and returns that page.
  uint64_t PinPath(uint64_t root, uint64_t key, Path* path);
  // Unpins every page still on `path`.
  void UnpinPath(Path* path);
  // Adds separator `sep_key` for `new_child` to the parent at the end of
  // the pinned `path` (the page that split is off it), splitting upwards as
  // needed and unpinning the path; grows a new root when the root splits.
  void InsertIntoParents(uint64_t* root, Path* path, uint64_t sep_key,
                         uint64_t new_child);

  BufferPool& pool_;
  uint32_t value_bytes_;
  uint64_t* next_free_page_;
  uint32_t leaf_capacity_;
  uint32_t internal_capacity_;
};

}  // namespace rldb
