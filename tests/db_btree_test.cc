#include "src/db/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "src/db/buffer_pool.h"
#include "src/db/layout.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/storage/block_device.h"

namespace rldb {
namespace {

using rlsim::Simulator;
using rlsim::Task;
using rlstor::SimBlockDevice;
using rlstor::WriteCachePolicy;

constexpr uint32_t kValueBytes = 32;

struct TreeFixture {
  explicit TreeFixture(uint32_t page_bytes = 4096, uint32_t frames = 4096)
      : dev(sim,
            SimBlockDevice::Options{.geometry = {.sector_count = 1 << 20},
                                    .cache_policy =
                                        WriteCachePolicy::kWriteBack},
            rlstor::MakeDefaultSsd()),
        pool(sim, dev, page_bytes, frames),
        tree(pool, kValueBytes, &next_free_page) {}

  // Writes that expect their path resident, as every page of a tree
  // built in this pool is until the pool is reset.
  void Put(uint64_t* root, uint64_t key, std::span<const uint8_t> value) {
    EXPECT_EQ(tree.Put(root, key, value), 0u) << key;
  }
  void Remove(uint64_t root, uint64_t key) {
    EXPECT_EQ(tree.Remove(root, key), 0u) << key;
  }

  std::vector<uint8_t> Value(uint64_t seed) const {
    std::vector<uint8_t> v(kValueBytes);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<uint8_t>(seed * 31 + i);
    }
    return v;
  }

  Simulator sim;
  SimBlockDevice dev;
  BufferPool pool;
  uint64_t next_free_page = 100;  // pages below are "journal"
  BTree tree;
};

TEST(BTreeTest, EmptyTreeGetMisses) {
  TreeFixture f;
  bool found = true;
  f.sim.Spawn([](TreeFixture& fx, bool& out) -> Task<void> {
    const uint64_t root = fx.tree.CreateEmpty();
    out = co_await fx.tree.Get(root, 42, nullptr);
  }(f, found));
  f.sim.Run();
  EXPECT_FALSE(found);
}

TEST(BTreeTest, PutGetSingle) {
  TreeFixture f;
  std::vector<uint8_t> got;
  f.sim.Spawn([](TreeFixture& fx, std::vector<uint8_t>& out) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    fx.Put(&root, 42, fx.Value(7));
    const bool found = co_await fx.tree.Get(root, 42, &out);
    EXPECT_TRUE(found);
  }(f, got));
  f.sim.Run();
  EXPECT_EQ(got, f.Value(7));
}

TEST(BTreeTest, OverwriteReplacesValue) {
  TreeFixture f;
  std::vector<uint8_t> got;
  f.sim.Spawn([](TreeFixture& fx, std::vector<uint8_t>& out) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    fx.Put(&root, 1, fx.Value(1));
    fx.Put(&root, 1, fx.Value(2));
    co_await fx.tree.Get(root, 1, &out);
    EXPECT_EQ(co_await fx.tree.Count(root), 1u);
  }(f, got));
  f.sim.Run();
  EXPECT_EQ(got, f.Value(2));
}

TEST(BTreeTest, RemoveDeletes) {
  TreeFixture f;
  f.sim.Spawn([](TreeFixture& fx) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    fx.Put(&root, 5, fx.Value(5));
    fx.Put(&root, 6, fx.Value(6));
    fx.Remove(root, 5);
    EXPECT_FALSE(co_await fx.tree.Get(root, 5, nullptr));
    EXPECT_TRUE(co_await fx.tree.Get(root, 6, nullptr));
    EXPECT_EQ(co_await fx.tree.Count(root), 1u);
  }(f));
  f.sim.Run();
}

TEST(BTreeTest, RemoveMissingIsNoOp) {
  TreeFixture f;
  f.sim.Spawn([](TreeFixture& fx) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    fx.Put(&root, 1, fx.Value(1));
    fx.Remove(root, 99);
    EXPECT_EQ(co_await fx.tree.Count(root), 1u);
  }(f));
  f.sim.Run();
}

TEST(BTreeTest, SequentialInsertSplitsAndStaysOrdered) {
  TreeFixture f;
  f.sim.Spawn([](TreeFixture& fx) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    const uint64_t n = fx.tree.leaf_capacity() * 20ull;
    for (uint64_t k = 1; k <= n; ++k) {
      fx.Put(&root, k, fx.Value(k));
    }
    EXPECT_EQ(co_await fx.tree.Count(root), n);
    co_await fx.tree.CheckStructure(root);
    // Spot-check lookups.
    for (uint64_t k = 1; k <= n; k += 37) {
      std::vector<uint8_t> v;
      EXPECT_TRUE(co_await fx.tree.Get(root, k, &v));
      EXPECT_EQ(v, fx.Value(k));
    }
  }(f));
  f.sim.Run();
}

TEST(BTreeTest, FirstMissOnPathNamesTheFirstPageNotResident) {
  // A three-level tree, written to the device and dropped from the pool:
  // the walk names the root, then (with only the root read back) the
  // root's child on the key's path, and 0 once the path is resident. The
  // walk itself reads, pins and counts nothing.
  TreeFixture f(/*page_bytes=*/512, /*frames=*/4096);
  struct Walk {
    uint64_t root = 0;
    uint64_t cold = 0, below_root = 0, resident = 0;
    int64_t walk_fetches = 0;
  } walk;
  f.sim.Spawn([](TreeFixture& fx, Walk& out) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    for (uint64_t k = 0; k < 400; ++k) {
      fx.Put(&root, k, fx.Value(k));
    }
    out.root = root;
    for (BufferPool::Frame* frame : fx.pool.DirtyFrames()) {
      std::vector<uint8_t> image = frame->data;
      SealPage(image, frame->page_id);
      EXPECT_TRUE(co_await fx.pool.WritePageDirect(frame->page_id, image,
                                                   /*fua=*/true));
    }
    fx.pool.Reset();
    out.cold = fx.tree.FirstMissOnPath(root, 123);
    fx.pool.Unpin(co_await fx.pool.Fetch(root), /*mark_dirty=*/false);
    out.below_root = fx.tree.FirstMissOnPath(root, 123);
    EXPECT_TRUE(co_await fx.tree.Get(root, 123, nullptr));
    const int64_t fetches = fx.pool.stats().fetches.value();
    out.resident = fx.tree.FirstMissOnPath(root, 123);
    out.walk_fetches = fx.pool.stats().fetches.value() - fetches;
  }(f, walk));
  f.sim.Run();
  EXPECT_EQ(walk.cold, walk.root);
  EXPECT_NE(walk.below_root, 0u);
  EXPECT_NE(walk.below_root, walk.root);
  EXPECT_EQ(f.pool.Peek(walk.below_root)->pins, 0);
  EXPECT_EQ(walk.resident, 0u);
  EXPECT_EQ(walk.walk_fetches, 0);
}

// Every resident page's bytes, dirty bit and pins, by page id.
struct PoolImage {
  std::map<uint64_t, std::tuple<std::vector<uint8_t>, bool, int>> frames;
  size_t dirty = 0;
  bool operator==(const PoolImage&) const = default;
};

PoolImage ImageOf(const TreeFixture& fx) {
  PoolImage image;
  for (uint64_t page = 0; page < fx.next_free_page; ++page) {
    if (const BufferPool::Frame* f = fx.pool.Peek(page)) {
      image.frames.emplace(page, std::make_tuple(f->data, f->dirty, f->pins));
    }
  }
  image.dirty = fx.pool.dirty_count();
  return image;
}

TEST(BTreeTest, WriteOverAMissingPageChangesNothingAndNamesIt) {
  // A three-level tree, written to the device and dropped from the pool;
  // the root and the inner page on key 123's path are read back, its leaf
  // is not. A put of 123 (absent) and a remove of 122 (present, in the same
  // leaf) both return that leaf and leave the tree and every resident page
  // as they were. Once the leaf is read in, both apply.
  TreeFixture f(/*page_bytes=*/512, /*frames=*/4096);
  constexpr uint64_t kKey = 123;
  struct Outcome {
    uint64_t leaf = 0, put_miss = 0, remove_miss = 0;
    bool put_unchanged = false, remove_unchanged = false;
    uint64_t put_retry = 1, remove_retry = 1;
  } out;
  f.sim.Spawn([](TreeFixture& fx, Outcome& o) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    for (uint64_t k = 0; k < 400; ++k) {
      fx.Put(&root, k * 2, fx.Value(k));
    }
    for (BufferPool::Frame* frame : fx.pool.DirtyFrames()) {
      std::vector<uint8_t> image = frame->data;
      SealPage(image, frame->page_id);
      EXPECT_TRUE(co_await fx.pool.WritePageDirect(frame->page_id, image,
                                                   /*fua=*/true));
    }
    fx.pool.Reset();
    for (int level = 0; level < 2; ++level) {
      const uint64_t inner = fx.tree.FirstMissOnPath(root, kKey);
      fx.pool.Unpin(co_await fx.pool.Fetch(inner), /*mark_dirty=*/false);
    }
    o.leaf = fx.tree.FirstMissOnPath(root, kKey);

    const uint64_t root_before = root;
    const uint64_t next_free_before = fx.next_free_page;
    const PoolImage before = ImageOf(fx);
    o.put_miss = fx.tree.Put(&root, kKey, fx.Value(7));
    o.put_unchanged = root == root_before &&
                      fx.next_free_page == next_free_before &&
                      ImageOf(fx) == before;
    o.remove_miss = fx.tree.Remove(root, kKey - 1);
    o.remove_unchanged = ImageOf(fx) == before;

    fx.pool.Unpin(co_await fx.pool.Fetch(o.leaf), /*mark_dirty=*/false);
    EXPECT_EQ(ReadPageHeader(fx.pool.Peek(o.leaf)->data).type,
              PageType::kLeaf);
    o.put_retry = fx.tree.Put(&root, kKey, fx.Value(7));
    std::vector<uint8_t> got;
    EXPECT_TRUE(co_await fx.tree.Get(root, kKey, &got));
    EXPECT_EQ(got, fx.Value(7));
    o.remove_retry = fx.tree.Remove(root, kKey - 1);
    EXPECT_FALSE(co_await fx.tree.Get(root, kKey - 1, nullptr));
    EXPECT_EQ(co_await fx.tree.Count(root), 400u);
    co_await fx.tree.CheckStructure(root);
  }(f, out));
  f.sim.Run();
  EXPECT_NE(out.leaf, 0u);
  EXPECT_EQ(out.put_miss, out.leaf);
  EXPECT_TRUE(out.put_unchanged);
  EXPECT_EQ(out.remove_miss, out.leaf);
  EXPECT_TRUE(out.remove_unchanged);
  EXPECT_EQ(out.put_retry, 0u);
  EXPECT_EQ(out.remove_retry, 0u);
}

TEST(BTreeTest, ReverseInsert) {
  TreeFixture f;
  f.sim.Spawn([](TreeFixture& fx) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    const uint64_t n = fx.tree.leaf_capacity() * 10ull;
    for (uint64_t k = n; k >= 1; --k) {
      fx.Put(&root, k, fx.Value(k));
    }
    EXPECT_EQ(co_await fx.tree.Count(root), n);
    co_await fx.tree.CheckStructure(root);
  }(f));
  f.sim.Run();
}

TEST(BTreeTest, ScanRangeInOrder) {
  TreeFixture f;
  std::vector<uint64_t> seen;
  f.sim.Spawn([](TreeFixture& fx, std::vector<uint64_t>& out) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    for (uint64_t k = 0; k < 500; ++k) {
      fx.Put(&root, k * 2, fx.Value(k));  // even keys
    }
    co_await fx.tree.Scan(root, 100, 200,
                          [&out](uint64_t k, std::span<const uint8_t>) {
                            out.push_back(k);
                            return true;
                          });
  }(f, seen));
  f.sim.Run();
  ASSERT_EQ(seen.size(), 51u);  // 100..200 even
  EXPECT_EQ(seen.front(), 100u);
  EXPECT_EQ(seen.back(), 200u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i], seen[i - 1]);
  }
}

TEST(BTreeTest, ScanEarlyStop) {
  TreeFixture f;
  int visited = 0;
  f.sim.Spawn([](TreeFixture& fx, int& out) -> Task<void> {
    uint64_t root = fx.tree.CreateEmpty();
    for (uint64_t k = 0; k < 100; ++k) {
      fx.Put(&root, k, fx.Value(k));
    }
    co_await fx.tree.Scan(root, 0, UINT64_MAX,
                          [&out](uint64_t, std::span<const uint8_t>) {
                            return ++out < 10;
                          });
  }(f, visited));
  f.sim.Run();
  EXPECT_EQ(visited, 10);
}

// Property sweep: random workloads vs a reference std::map, across page
// sizes (different fan-outs exercise different split patterns).
class BTreeRandomTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {};

TEST_P(BTreeRandomTest, MatchesReferenceModel) {
  const uint32_t page_bytes = std::get<0>(GetParam());
  const uint64_t seed = std::get<1>(GetParam());
  TreeFixture f(page_bytes);
  f.sim.Spawn([](TreeFixture& fx, uint64_t sd) -> Task<void> {
    rlsim::Rng rng(sd);
    std::map<uint64_t, std::vector<uint8_t>> reference;
    uint64_t root = fx.tree.CreateEmpty();
    for (int op = 0; op < 4000; ++op) {
      const uint64_t key = rng.NextBelow(800);
      const double dice = rng.NextDouble();
      if (dice < 0.65) {
        const auto value = fx.Value(rng.Next());
        fx.Put(&root, key, value);
        reference[key] = value;
      } else if (dice < 0.85) {
        fx.Remove(root, key);
        reference.erase(key);
      } else {
        std::vector<uint8_t> got;
        const bool found = co_await fx.tree.Get(root, key, &got);
        const auto it = reference.find(key);
        EXPECT_EQ(found, it != reference.end()) << "key " << key;
        if (found && it != reference.end()) {
          EXPECT_EQ(got, it->second);
        }
      }
    }
    EXPECT_EQ(co_await fx.tree.Count(root), reference.size());
    co_await fx.tree.CheckStructure(root);
    // Full containment check.
    for (const auto& [key, value] : reference) {
      std::vector<uint8_t> got;
      EXPECT_TRUE(co_await fx.tree.Get(root, key, &got)) << key;
      EXPECT_EQ(got, value);
    }
  }(f, seed));
  f.sim.Run();
}

INSTANTIATE_TEST_SUITE_P(
    PagesAndSeeds, BTreeRandomTest,
    ::testing::Combine(::testing::Values(1024u, 4096u, 8192u),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace rldb
