// Buffer pool: fixed set of page frames over the data device.
//
// Eviction policy is CLOCK over *clean, unpinned* frames only: dirty pages
// are never written back individually (in-place page writes happen solely
// inside the journaled checkpoint, which is what makes recovery see a
// structurally consistent B+-tree — see Database::Checkpoint). The engine
// checkpoints before the dirty set can exhaust the pool. Frames a running
// checkpoint has staged are evicted only when nothing else can be; until
// the page's in-place write lands, the pool then serves it from the staged
// image: its packed prefix, zero-filled back to a page.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/stats.h"
#include "src/sim/sync.h"
#include "src/storage/block_device.h"

namespace rldb {

class BufferPool {
 public:
  struct Frame {
    uint64_t page_id = 0;
    bool valid = false;
    bool dirty = false;
    // Set while a checkpoint that staged this frame's image runs: CLOCK
    // passes the frame over, and it is evicted only as a last resort.
    bool in_checkpoint = false;
    // That image, until its in-place write lands: a re-fetch from the
    // device before then would resurrect the pre-checkpoint version, so an
    // eviction keeps the image to serve the page from. The image is the
    // canonical page's prefix of whole sectors; the rest of the page is
    // zero.
    std::span<const uint8_t> staged;
    int pins = 0;
    bool referenced = false;  // CLOCK bit
    std::vector<uint8_t> data;
  };

  // The pages a retried tree descent has read in (Fetch's pins), held until
  // it succeeds, so that reading the next missing page cannot evict one: a
  // pool with room for little more than the path still makes progress. It
  // allocates nothing and has no destructor, so a coroutine frame destroyed
  // at teardown never touches the pool; the pins of a fetch that threw die
  // with the halted engine.
  class Held {
   public:
    // Holds `frame`'s pin, first releasing every held pin when full.
    void Add(BufferPool& pool, Frame* frame) {
      if (count_ == frames_.size()) {
        Release(pool);
      }
      frames_[count_++] = frame;
    }
    void Release(BufferPool& pool) {
      for (size_t i = 0; i < count_; ++i) {
        pool.Unpin(frames_[i], /*mark_dirty=*/false);
      }
      count_ = 0;
    }

   private:
    std::array<Frame*, 16> frames_{};
    size_t count_ = 0;
  };

  struct Stats {
    rlsim::Counter fetches;
    rlsim::Counter hits;
    rlsim::Counter misses;
    rlsim::Counter evictions;
    rlsim::Counter staged_evictions;  // last-resort evictions of staged frames
    rlsim::Counter page_reads;
    rlsim::Counter page_writes;
    rlsim::Histogram read_latency;  // ns, device reads only
  };

  BufferPool(rlsim::Simulator& sim, rlstor::BlockDevice& device,
             uint32_t page_bytes, uint32_t frame_count);

  // Pins the page (reading it from the device on a miss). Page contents are
  // CRC-validated on read; a mismatch is a fatal CheckFailure (recovery must
  // repair pages before the pool touches them).
  rlsim::Task<Frame*> Fetch(uint64_t page_id);

  // Fetch's hit path without a coroutine frame: pins a resident page and
  // counts a fetch and a hit, exactly as Fetch would. Returns nullptr, and
  // counts nothing, if the page is not resident (or its read is still in
  // flight); the caller then awaits Fetch. Nearly every fetch hits.
  Frame* FetchResident(uint64_t page_id);

  // Pins a fresh all-zero frame for a newly allocated page (no device read).
  Frame* Create(uint64_t page_id);

  void Unpin(Frame* frame, bool mark_dirty);

  // Unpinned read-only lookup; nullptr if the page is not resident (or its
  // read is still in flight). It counts no fetch and leaves the CLOCK bit
  // alone, so a caller must not keep the frame across a suspension. The
  // B-tree's read-ahead walk (BTree::FirstMissOnPath) and tests use it.
  const Frame* Peek(uint64_t page_id) const;

  // All dirty frames in ascending page_id order (checkpoint input). The
  // checkpoint journals and writes pages back in this order, so the
  // in-place phase sweeps the data disk once instead of seeking per page.
  std::vector<Frame*> DirtyFrames();
  size_t dirty_count() const { return dirty_count_; }

  // Marks a frame clean (checkpoint wrote it out).
  void MarkClean(Frame* frame);

  // A checkpoint staged `image` as the next on-disk version of `frame`'s
  // page: the sealed page's first whole sectors (at most a page), the rest
  // of the page being zero. The image must stay alive until Unstage(page
  // id) or EndCheckpoint().
  void Stage(Frame* frame, std::span<const uint8_t> image);
  // The page's staged image is on the device: a fetch after an eviction
  // reads the device again.
  void Unstage(uint64_t page_id);
  // The checkpoint finished or gave up: no frame is staged any more.
  void EndCheckpoint();

  // Drops every frame (crash simulation: the guest's memory is gone).
  void Reset();

  uint32_t page_bytes() const { return page_bytes_; }
  uint32_t frame_count() const { return static_cast<uint32_t>(frames_.size()); }
  const Stats& stats() const { return stats_; }

  // Direct device I/O helpers used by checkpoint/recovery (bypass frames).
  rlsim::Task<bool> WritePageDirect(uint64_t page_id,
                                    std::span<const uint8_t> image,
                                    bool fua);
  // Writes a page image, or a prefix of whole sectors of one as the
  // checkpoint journal does, at `lba`; counts as one page write.
  rlsim::Task<bool> WriteImageDirect(uint64_t lba,
                                     std::span<const uint8_t> image,
                                     bool fua);
  rlsim::Task<bool> ReadPageDirect(uint64_t page_id,
                                   std::span<uint8_t> out);
  rlstor::BlockDevice& device() { return device_; }

 private:
  // page_to_frame_'s value for a page that is not resident.
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  Frame* EvictOne();
  // Pinned lookup without I/O or stats; nullptr if not resident.
  Frame* FindResident(uint64_t page_id);
  // The slot of `page_id`'s frame, or kNoFrame.
  uint32_t SlotOf(uint64_t page_id) const {
    return page_id < page_to_frame_.size() ? page_to_frame_[page_id]
                                           : kNoFrame;
  }
  // Makes `f`, which now holds `page_id`, the page's frame.
  void MapPage(uint64_t page_id, const Frame* f);

  rlsim::Simulator& sim_;
  rlstor::BlockDevice& device_;
  uint32_t page_bytes_;
  std::vector<Frame> frames_;
  // Frame slot by page id, kNoFrame for a page that is not resident. Page
  // ids are bump-allocated from the end of the journal region, so the table
  // is dense; it grows to the largest page id the pool has held.
  std::vector<uint32_t> page_to_frame_;
  // In-flight reads so concurrent fetches of one page issue one device read.
  std::unordered_map<uint64_t, std::shared_ptr<rlsim::Completion<bool>>>
      pending_reads_;
  // Staged images of pages evicted before their in-place write.
  std::unordered_map<uint64_t, std::span<const uint8_t>> evicted_staged_;
  size_t clock_hand_ = 0;
  size_t dirty_count_ = 0;
  Stats stats_;
};

}  // namespace rldb
