#include "src/db/btree.h"

#include <algorithm>
#include <cstring>

#include "src/db/layout.h"
#include "src/sim/check.h"

namespace rldb {

using rlsim::Task;

namespace {

// --- In-page node accessors --------------------------------------------------

uint64_t LeafKey(std::span<const uint8_t> page, uint32_t value_bytes,
                 uint32_t i) {
  return LoadScalar<uint64_t>(page,
                              kPageHeaderBytes + i * (8ull + value_bytes));
}

std::span<const uint8_t> LeafValue(std::span<const uint8_t> page,
                                   uint32_t value_bytes, uint32_t i) {
  return page.subspan(kPageHeaderBytes + i * (8ull + value_bytes) + 8,
                      value_bytes);
}

void LeafSetEntry(std::span<uint8_t> page, uint32_t value_bytes, uint32_t i,
                  uint64_t key, std::span<const uint8_t> value) {
  const size_t off = kPageHeaderBytes + i * (8ull + value_bytes);
  StoreScalar<uint64_t>(page, off, key);
  std::memcpy(page.data() + off + 8, value.data(), value_bytes);
}

// Inserts `key` at `pos` of a leaf with room, counting it in `h`.
void LeafInsert(std::span<uint8_t> page, uint32_t value_bytes, PageHeader* h,
                uint32_t pos, uint64_t key, std::span<const uint8_t> value) {
  const size_t entry = 8ull + value_bytes;
  const size_t off = kPageHeaderBytes + pos * entry;
  std::memmove(page.data() + off + entry, page.data() + off,
               (h->nkeys - pos) * entry);
  LeafSetEntry(page, value_bytes, pos, key, value);
  h->nkeys = static_cast<uint16_t>(h->nkeys + 1);
  WritePageHeader(page, *h);
}

void LeafShiftLeft(std::span<uint8_t> page, uint32_t value_bytes,
                   uint32_t from, uint32_t count) {
  const size_t entry = 8ull + value_bytes;
  const size_t off = kPageHeaderBytes + from * entry;
  std::memmove(page.data() + off - entry, page.data() + off, count * entry);
}

uint64_t InternalChild(std::span<const uint8_t> page, uint32_t i) {
  // child0 at header end; pair j = [key, child_{j+1}] at 8 + j*16.
  if (i == 0) {
    return LoadScalar<uint64_t>(page, kPageHeaderBytes);
  }
  return LoadScalar<uint64_t>(page,
                              kPageHeaderBytes + 8 + (i - 1) * 16ull + 8);
}

uint64_t InternalKey(std::span<const uint8_t> page, uint32_t j) {
  return LoadScalar<uint64_t>(page, kPageHeaderBytes + 8 + j * 16ull);
}

void InternalSetChild(std::span<uint8_t> page, uint32_t i, uint64_t child) {
  if (i == 0) {
    StoreScalar<uint64_t>(page, kPageHeaderBytes, child);
  } else {
    StoreScalar<uint64_t>(page, kPageHeaderBytes + 8 + (i - 1) * 16ull + 8,
                          child);
  }
}

void InternalSetKey(std::span<uint8_t> page, uint32_t j, uint64_t key) {
  StoreScalar<uint64_t>(page, kPageHeaderBytes + 8 + j * 16ull, key);
}

// Number of children in the subtree rooted at child i is keys+1.
uint32_t InternalUpperBound(std::span<const uint8_t> page, uint16_t nkeys,
                            uint64_t key) {
  // First key strictly greater than `key` determines the child.
  uint32_t lo = 0;
  uint32_t hi = nkeys;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (InternalKey(page, mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;  // child index
}

uint32_t LeafLowerBound(std::span<const uint8_t> page, uint32_t value_bytes,
                        uint16_t nkeys, uint64_t key) {
  uint32_t lo = 0;
  uint32_t hi = nkeys;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (LeafKey(page, value_bytes, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BTree::BTree(BufferPool& pool, uint32_t value_bytes,
             uint64_t* next_free_page)
    : pool_(pool), value_bytes_(value_bytes), next_free_page_(next_free_page) {
  RL_CHECK(next_free_page_ != nullptr);
  const uint32_t payload = pool_.page_bytes() - kPageHeaderBytes;
  leaf_capacity_ = payload / (8 + value_bytes_);
  internal_capacity_ = (payload - 8) / 16;
  RL_CHECK_MSG(leaf_capacity_ >= 4 && internal_capacity_ >= 4,
               "page too small for value size " << value_bytes_);
}

uint64_t BTree::AllocPage() { return (*next_free_page_)++; }

uint64_t BTree::CreateEmpty() {
  const uint64_t pid = AllocPage();
  BufferPool::Frame* f = pool_.Create(pid);
  PageHeader h;
  h.page_id = pid;
  h.type = PageType::kLeaf;
  h.level = 0;
  h.nkeys = 0;
  h.next_leaf = 0;
  WritePageHeader(f->data, h);
  pool_.Unpin(f, /*mark_dirty=*/true);
  return pid;
}

uint64_t BTree::PinPath(uint64_t root, uint64_t key, Path* path) {
  path->depth = 0;
  for (uint64_t pid = root;;) {
    BufferPool::Frame* f = pool_.FetchResident(pid);
    if (f == nullptr) {
      UnpinPath(path);
      return pid;
    }
    RL_CHECK(path->depth < Path::kMaxDepth);
    PathEntry& at = path->entries[path->depth++];
    at.frame = f;
    const PageHeader h = ReadPageHeader(f->data);
    if (h.type == PageType::kLeaf) {
      return 0;
    }
    RL_CHECK_MSG(h.type == PageType::kInternal,
                 "unexpected page type on descent");
    at.child_index = InternalUpperBound(f->data, h.nkeys, key);
    pid = InternalChild(f->data, at.child_index);
  }
}

void BTree::UnpinPath(Path* path) {
  while (path->depth > 0) {
    pool_.Unpin(path->entries[--path->depth].frame, false);
  }
}

uint64_t BTree::FirstMissOnPath(uint64_t from, uint64_t key) const {
  for (uint64_t pid = from; pid != 0;) {
    const BufferPool::Frame* f = pool_.Peek(pid);
    if (f == nullptr) {
      return pid;
    }
    const PageHeader h = ReadPageHeader(f->data);
    if (h.type == PageType::kLeaf) {
      return 0;
    }
    pid = InternalChild(f->data, InternalUpperBound(f->data, h.nkeys, key));
  }
  return 0;
}

Task<bool> BTree::Get(uint64_t root, uint64_t key,
                      std::vector<uint8_t>* value_out) {
  if (root == 0) {
    co_return false;
  }
  Path path;
  BufferPool::Held held;
  while (const uint64_t miss = PinPath(root, key, &path)) {
    held.Add(pool_, co_await pool_.Fetch(miss));
  }
  held.Release(pool_);
  const std::span<const uint8_t> leaf =
      path.entries[path.depth - 1].frame->data;
  const PageHeader h = ReadPageHeader(leaf);
  const uint32_t pos = LeafLowerBound(leaf, value_bytes_, h.nkeys, key);
  const bool found = pos < h.nkeys && LeafKey(leaf, value_bytes_, pos) == key;
  if (found && value_out != nullptr) {
    const auto v = LeafValue(leaf, value_bytes_, pos);
    value_out->assign(v.begin(), v.end());
  }
  UnpinPath(&path);
  co_return found;
}

void BTree::InsertIntoParents(uint64_t* root, Path* path, uint64_t sep_key,
                              uint64_t new_child) {
  uint8_t child_level = 0;  // of the page that split last
  while (path->depth > 0) {
    const PathEntry at = path->entries[--path->depth];
    BufferPool::Frame* f = at.frame;
    PageHeader h = ReadPageHeader(f->data);
    RL_CHECK(h.type == PageType::kInternal);

    if (h.nkeys < internal_capacity_) {
      // Shift pairs right of the insertion point.
      for (uint32_t j = h.nkeys; j > at.child_index; --j) {
        InternalSetKey(f->data, j, InternalKey(f->data, j - 1));
        InternalSetChild(f->data, j + 1, InternalChild(f->data, j));
      }
      InternalSetKey(f->data, at.child_index, sep_key);
      InternalSetChild(f->data, at.child_index + 1, new_child);
      h.nkeys = static_cast<uint16_t>(h.nkeys + 1);
      WritePageHeader(f->data, h);
      pool_.Unpin(f, true);
      UnpinPath(path);
      return;
    }

    // Split the internal node. Build the logical key/child sequence with
    // the new separator inserted, then distribute around the median.
    std::vector<uint64_t> keys;
    std::vector<uint64_t> children;
    keys.reserve(h.nkeys + 1u);
    children.reserve(h.nkeys + 2u);
    for (uint32_t j = 0; j < h.nkeys; ++j) {
      keys.push_back(InternalKey(f->data, j));
    }
    for (uint32_t j = 0; j <= h.nkeys; ++j) {
      children.push_back(InternalChild(f->data, j));
    }
    keys.insert(keys.begin() + at.child_index, sep_key);
    children.insert(children.begin() + at.child_index + 1, new_child);

    const uint32_t total_keys = static_cast<uint32_t>(keys.size());
    const uint32_t mid = total_keys / 2;
    const uint64_t promote = keys[mid];

    const uint64_t right_pid = AllocPage();
    BufferPool::Frame* rf = pool_.Create(right_pid);

    // Left keeps keys [0, mid) and children [0, mid].
    PageHeader lh = h;
    lh.nkeys = static_cast<uint16_t>(mid);
    WritePageHeader(f->data, lh);
    for (uint32_t j = 0; j < mid; ++j) {
      InternalSetKey(f->data, j, keys[j]);
    }
    for (uint32_t j = 0; j <= mid; ++j) {
      InternalSetChild(f->data, j, children[j]);
    }

    // Right takes keys (mid, end) and children [mid+1, end].
    PageHeader rh;
    rh.page_id = right_pid;
    rh.type = PageType::kInternal;
    rh.level = h.level;
    rh.nkeys = static_cast<uint16_t>(total_keys - mid - 1);
    WritePageHeader(rf->data, rh);
    for (uint32_t j = mid + 1; j < total_keys; ++j) {
      InternalSetKey(rf->data, j - mid - 1, keys[j]);
    }
    for (uint32_t j = mid + 1; j <= total_keys; ++j) {
      InternalSetChild(rf->data, j - mid - 1, children[j]);
    }

    pool_.Unpin(f, true);
    pool_.Unpin(rf, true);

    // Continue inserting `promote` -> right_pid into the grandparent.
    sep_key = promote;
    new_child = right_pid;
    child_level = h.level;
  }

  // The split reached the root: grow the tree by one level.
  const uint64_t new_root = AllocPage();
  BufferPool::Frame* f = pool_.Create(new_root);
  PageHeader h;
  h.page_id = new_root;
  h.type = PageType::kInternal;
  h.level = static_cast<uint8_t>(child_level + 1);
  h.nkeys = 1;
  WritePageHeader(f->data, h);
  InternalSetChild(f->data, 0, *root);
  InternalSetKey(f->data, 0, sep_key);
  InternalSetChild(f->data, 1, new_child);
  pool_.Unpin(f, true);
  *root = new_root;
}

uint64_t BTree::Put(uint64_t* root, uint64_t key,
                    std::span<const uint8_t> value) {
  RL_CHECK_MSG(value.size() == value_bytes_,
               "value size " << value.size() << " != slot size "
                             << value_bytes_);
  if (*root == 0) {
    *root = CreateEmpty();
  }
  Path path;
  if (const uint64_t miss = PinPath(*root, key, &path)) {
    return miss;
  }
  BufferPool::Frame* f = path.entries[--path.depth].frame;
  PageHeader h = ReadPageHeader(f->data);
  const uint32_t pos = LeafLowerBound(f->data, value_bytes_, h.nkeys, key);

  if (pos < h.nkeys && LeafKey(f->data, value_bytes_, pos) == key) {
    LeafSetEntry(f->data, value_bytes_, pos, key, value);  // overwrite
    pool_.Unpin(f, true);
    UnpinPath(&path);
    return 0;
  }

  if (h.nkeys < leaf_capacity_) {
    LeafInsert(f->data, value_bytes_, &h, pos, key, value);
    pool_.Unpin(f, true);
    UnpinPath(&path);
    return 0;
  }

  // Leaf split. The path above stays pinned, so the new pages' evictions
  // cannot take a page the split writes.
  const uint64_t right_pid = AllocPage();
  BufferPool::Frame* rf = pool_.Create(right_pid);
  const uint32_t mid = (h.nkeys + 1) / 2;

  PageHeader rh;
  rh.page_id = right_pid;
  rh.type = PageType::kLeaf;
  rh.level = 0;
  rh.nkeys = static_cast<uint16_t>(h.nkeys - mid);
  rh.next_leaf = h.next_leaf;
  // Copy upper half to the right leaf.
  const size_t entry = 8ull + value_bytes_;
  std::memcpy(rf->data.data() + kPageHeaderBytes,
              f->data.data() + kPageHeaderBytes + mid * entry,
              (h.nkeys - mid) * entry);
  WritePageHeader(rf->data, rh);

  h.nkeys = static_cast<uint16_t>(mid);
  h.next_leaf = right_pid;
  WritePageHeader(f->data, h);

  // Insert into the correct half.
  if (key < LeafKey(rf->data, value_bytes_, 0)) {
    LeafInsert(f->data, value_bytes_, &h,
               LeafLowerBound(f->data, value_bytes_, h.nkeys, key), key, value);
  } else {
    LeafInsert(rf->data, value_bytes_, &rh,
               LeafLowerBound(rf->data, value_bytes_, rh.nkeys, key), key,
               value);
  }

  const uint64_t sep = LeafKey(rf->data, value_bytes_, 0);
  pool_.Unpin(f, true);
  pool_.Unpin(rf, true);
  InsertIntoParents(root, &path, sep, right_pid);
  return 0;
}

uint64_t BTree::Remove(uint64_t root, uint64_t key) {
  if (root == 0) {
    return 0;
  }
  Path path;
  if (const uint64_t miss = PinPath(root, key, &path)) {
    return miss;
  }
  BufferPool::Frame* f = path.entries[--path.depth].frame;
  PageHeader h = ReadPageHeader(f->data);
  const uint32_t pos = LeafLowerBound(f->data, value_bytes_, h.nkeys, key);
  const bool found =
      pos < h.nkeys && LeafKey(f->data, value_bytes_, pos) == key;
  if (found) {
    LeafShiftLeft(f->data, value_bytes_, pos + 1, h.nkeys - pos - 1);
    h.nkeys = static_cast<uint16_t>(h.nkeys - 1);
    WritePageHeader(f->data, h);
  }
  pool_.Unpin(f, found);
  UnpinPath(&path);
  return 0;
}

Task<void> BTree::Scan(
    uint64_t root, uint64_t from, uint64_t to,
    const std::function<bool(uint64_t, std::span<const uint8_t>)>& visit) {
  if (root == 0) {
    co_return;
  }
  Path path;
  BufferPool::Held held;
  while (const uint64_t miss = PinPath(root, from, &path)) {
    held.Add(pool_, co_await pool_.Fetch(miss));
  }
  held.Release(pool_);
  uint64_t pid = path.entries[path.depth - 1].frame->page_id;
  UnpinPath(&path);
  while (pid != 0) {
    BufferPool::Frame* f = pool_.FetchResident(pid);
    if (f == nullptr) {
      f = co_await pool_.Fetch(pid);
    }
    const PageHeader h = ReadPageHeader(f->data);
    uint32_t pos = LeafLowerBound(f->data, value_bytes_, h.nkeys, from);
    for (; pos < h.nkeys; ++pos) {
      const uint64_t k = LeafKey(f->data, value_bytes_, pos);
      if (k > to) {
        pool_.Unpin(f, false);
        co_return;
      }
      if (!visit(k, LeafValue(f->data, value_bytes_, pos))) {
        pool_.Unpin(f, false);
        co_return;
      }
    }
    const uint64_t next = h.next_leaf;
    pool_.Unpin(f, false);
    pid = next;
  }
}

Task<uint64_t> BTree::Count(uint64_t root) {
  uint64_t count = 0;
  co_await Scan(root, 0, UINT64_MAX,
                [&count](uint64_t, std::span<const uint8_t>) {
                  ++count;
                  return true;
                });
  co_return count;
}

Task<void> BTree::CheckStructure(uint64_t root) {
  if (root == 0) {
    co_return;
  }
  // Walk the leaf chain: keys strictly increasing globally.
  uint64_t prev = 0;
  bool first = true;
  co_await Scan(root, 0, UINT64_MAX,
                [&](uint64_t k, std::span<const uint8_t>) {
                  if (!first) {
                    RL_CHECK_MSG(k > prev, "leaf chain out of order");
                  }
                  first = false;
                  prev = k;
                  return true;
                });
  // Verify internal separators bound their subtrees.
  struct Item {
    uint64_t pid;
    uint64_t lo;
    uint64_t hi;
  };
  std::vector<Item> stack{{root, 0, UINT64_MAX}};
  while (!stack.empty()) {
    const Item item = stack.back();
    stack.pop_back();
    BufferPool::Frame* f = pool_.FetchResident(item.pid);
    if (f == nullptr) {
      f = co_await pool_.Fetch(item.pid);
    }
    const PageHeader h = ReadPageHeader(f->data);
    if (h.type == PageType::kLeaf) {
      for (uint32_t i = 0; i < h.nkeys; ++i) {
        const uint64_t k = LeafKey(f->data, value_bytes_, i);
        RL_CHECK_MSG(k >= item.lo && k <= item.hi, "leaf key out of bounds");
      }
    } else {
      RL_CHECK(h.type == PageType::kInternal);
      uint64_t lo = item.lo;
      for (uint32_t j = 0; j < h.nkeys; ++j) {
        const uint64_t sep = InternalKey(f->data, j);
        RL_CHECK_MSG(sep >= item.lo && sep <= item.hi,
                     "separator out of bounds");
        RL_CHECK_MSG(sep > 0, "zero separator");
        stack.push_back(Item{InternalChild(f->data, j), lo, sep - 1});
        lo = sep;
      }
      stack.push_back(Item{InternalChild(f->data, h.nkeys), lo, item.hi});
    }
    pool_.Unpin(f, false);
  }
}

}  // namespace rldb
