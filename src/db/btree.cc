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

void LeafShiftRight(std::span<uint8_t> page, uint32_t value_bytes,
                    uint32_t from, uint32_t count) {
  const size_t entry = 8ull + value_bytes;
  const size_t off = kPageHeaderBytes + from * entry;
  std::memmove(page.data() + off + entry, page.data() + off, count * entry);
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

Task<uint64_t> BTree::DescendToLeaf(uint64_t root, uint64_t key,
                                    Path* path) {
  uint64_t pid = root;
  while (true) {
    BufferPool::Frame* f = pool_.FetchResident(pid);
    if (f == nullptr) {
      f = co_await pool_.Fetch(pid);
    }
    const PageHeader h = ReadPageHeader(f->data);
    if (h.type == PageType::kLeaf) {
      pool_.Unpin(f, false);
      co_return pid;
    }
    RL_CHECK_MSG(h.type == PageType::kInternal,
                 "unexpected page type on descent");
    const uint32_t child_idx = InternalUpperBound(f->data, h.nkeys, key);
    const uint64_t child = InternalChild(f->data, child_idx);
    pool_.Unpin(f, false);
    if (path != nullptr) {
      RL_CHECK(path->depth < Path::kMaxDepth);
      path->entries[path->depth++] = PathEntry{pid, child_idx};
    }
    pid = child;
  }
}

uint64_t BTree::FirstMissOnPath(uint64_t from, uint64_t key) const {
  uint64_t pid = from;
  while (pid != 0) {
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
  const uint64_t leaf = co_await DescendToLeaf(root, key, nullptr);
  BufferPool::Frame* f = pool_.FetchResident(leaf);
  if (f == nullptr) {
    f = co_await pool_.Fetch(leaf);
  }
  const PageHeader h = ReadPageHeader(f->data);
  const uint32_t pos = LeafLowerBound(f->data, value_bytes_, h.nkeys, key);
  bool found = false;
  if (pos < h.nkeys && LeafKey(f->data, value_bytes_, pos) == key) {
    found = true;
    if (value_out != nullptr) {
      const auto v = LeafValue(f->data, value_bytes_, pos);
      value_out->assign(v.begin(), v.end());
    }
  }
  pool_.Unpin(f, false);
  co_return found;
}

Task<uint64_t> BTree::InsertIntoParents(uint64_t root, Path* path,
                                        uint64_t sep_key,
                                        uint64_t new_child) {
  while (true) {
    if (path->depth == 0) {
      // Split reached the root: grow the tree by one level.
      const uint64_t new_root = AllocPage();
      BufferPool::Frame* f = pool_.Create(new_root);
      BufferPool::Frame* old = pool_.FetchResident(root);
      if (old == nullptr) {
        old = co_await pool_.Fetch(root);
      }
      const uint8_t child_level = ReadPageHeader(old->data).level;
      pool_.Unpin(old, false);
      PageHeader h;
      h.page_id = new_root;
      h.type = PageType::kInternal;
      h.level = static_cast<uint8_t>(child_level + 1);
      h.nkeys = 1;
      WritePageHeader(f->data, h);
      InternalSetChild(f->data, 0, root);
      InternalSetKey(f->data, 0, sep_key);
      InternalSetChild(f->data, 1, new_child);
      pool_.Unpin(f, true);
      co_return new_root;
    }

    const PathEntry at = path->entries[--path->depth];
    BufferPool::Frame* f = pool_.FetchResident(at.page_id);
    if (f == nullptr) {
      f = co_await pool_.Fetch(at.page_id);
    }
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
      co_return root;
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
  }
}

Task<uint64_t> BTree::Put(uint64_t root, uint64_t key,
                          std::span<const uint8_t> value) {
  RL_CHECK_MSG(value.size() == value_bytes_,
               "value size " << value.size() << " != slot size "
                             << value_bytes_);
  if (root == 0) {
    root = CreateEmpty();
  }
  Path path;
  const uint64_t leaf_pid = co_await DescendToLeaf(root, key, &path);
  BufferPool::Frame* f = pool_.FetchResident(leaf_pid);
  if (f == nullptr) {
    f = co_await pool_.Fetch(leaf_pid);
  }
  PageHeader h = ReadPageHeader(f->data);
  const uint32_t pos = LeafLowerBound(f->data, value_bytes_, h.nkeys, key);

  if (pos < h.nkeys && LeafKey(f->data, value_bytes_, pos) == key) {
    LeafSetEntry(f->data, value_bytes_, pos, key, value);  // overwrite
    pool_.Unpin(f, true);
    co_return root;
  }

  if (h.nkeys < leaf_capacity_) {
    LeafShiftRight(f->data, value_bytes_, pos, h.nkeys - pos);
    LeafSetEntry(f->data, value_bytes_, pos, key, value);
    h.nkeys = static_cast<uint16_t>(h.nkeys + 1);
    WritePageHeader(f->data, h);
    pool_.Unpin(f, true);
    co_return root;
  }

  // Leaf split.
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
  const uint64_t right_first = LeafKey(rf->data, value_bytes_, 0);
  if (key < right_first) {
    const uint32_t p = LeafLowerBound(f->data, value_bytes_, h.nkeys, key);
    LeafShiftRight(f->data, value_bytes_, p, h.nkeys - p);
    LeafSetEntry(f->data, value_bytes_, p, key, value);
    h.nkeys = static_cast<uint16_t>(h.nkeys + 1);
    WritePageHeader(f->data, h);
  } else {
    const uint32_t p = LeafLowerBound(rf->data, value_bytes_, rh.nkeys, key);
    LeafShiftRight(rf->data, value_bytes_, p, rh.nkeys - p);
    LeafSetEntry(rf->data, value_bytes_, p, key, value);
    rh.nkeys = static_cast<uint16_t>(rh.nkeys + 1);
    WritePageHeader(rf->data, rh);
  }

  const uint64_t sep = LeafKey(rf->data, value_bytes_, 0);
  pool_.Unpin(f, true);
  pool_.Unpin(rf, true);
  co_return co_await InsertIntoParents(root, &path, sep, right_pid);
}

Task<uint64_t> BTree::Remove(uint64_t root, uint64_t key) {
  if (root == 0) {
    co_return root;
  }
  const uint64_t leaf_pid = co_await DescendToLeaf(root, key, nullptr);
  BufferPool::Frame* f = pool_.FetchResident(leaf_pid);
  if (f == nullptr) {
    f = co_await pool_.Fetch(leaf_pid);
  }
  PageHeader h = ReadPageHeader(f->data);
  const uint32_t pos = LeafLowerBound(f->data, value_bytes_, h.nkeys, key);
  if (pos < h.nkeys && LeafKey(f->data, value_bytes_, pos) == key) {
    LeafShiftLeft(f->data, value_bytes_, pos + 1, h.nkeys - pos - 1);
    h.nkeys = static_cast<uint16_t>(h.nkeys - 1);
    WritePageHeader(f->data, h);
    pool_.Unpin(f, true);
  } else {
    pool_.Unpin(f, false);
  }
  co_return root;
}

Task<void> BTree::Scan(
    uint64_t root, uint64_t from, uint64_t to,
    const std::function<bool(uint64_t, std::span<const uint8_t>)>& visit) {
  if (root == 0) {
    co_return;
  }
  uint64_t pid = co_await DescendToLeaf(root, from, nullptr);
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
