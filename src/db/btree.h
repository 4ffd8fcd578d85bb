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

  // Inserts or overwrites. Returns the (possibly new) root page id.
  rlsim::Task<uint64_t> Put(uint64_t root, uint64_t key,
                            std::span<const uint8_t> value);

  // The first page on `key`'s path down from `from` (the root, or a page on
  // that path) that is not resident in the pool, or 0 if the whole path is.
  // Synchronous, over BufferPool::Peek: it pins, latches, writes and counts
  // nothing, so it is only a hint of what a descent for `key` would read
  // right now.
  uint64_t FirstMissOnPath(uint64_t from, uint64_t key) const;

  // Removes the key if present. Returns the root (unchanged structure).
  rlsim::Task<uint64_t> Remove(uint64_t root, uint64_t key);

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
    uint64_t page_id;
    uint32_t child_index;
  };
  // The internal nodes a descent passed, root first. Fixed capacity, so a
  // descent allocates nothing: even 4-key nodes (the smallest the
  // constructor allows) reach 5^16 keys in kMaxDepth levels.
  struct Path {
    static constexpr size_t kMaxDepth = 16;
    std::array<PathEntry, kMaxDepth> entries{};
    size_t depth = 0;
  };

  uint64_t AllocPage();
  rlsim::Task<uint64_t> DescendToLeaf(uint64_t root, uint64_t key,
                                      Path* path);
  rlsim::Task<uint64_t> InsertIntoParents(uint64_t root, Path* path,
                                          uint64_t sep_key,
                                          uint64_t new_child);

  BufferPool& pool_;
  uint32_t value_bytes_;
  uint64_t* next_free_page_;
  uint32_t leaf_capacity_;
  uint32_t internal_capacity_;
};

}  // namespace rldb
