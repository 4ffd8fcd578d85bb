#include "src/db/buffer_pool.h"

#include <algorithm>

#include "src/db/errors.h"
#include "src/db/layout.h"
#include "src/sim/check.h"

namespace rldb {

using rlsim::Task;
using rlstor::BlockStatus;

BufferPool::BufferPool(rlsim::Simulator& sim, rlstor::BlockDevice& device,
                       uint32_t page_bytes, uint32_t frame_count)
    : sim_(sim), device_(device), page_bytes_(page_bytes) {
  RL_CHECK(page_bytes_ % rlstor::kSectorSize == 0);
  RL_CHECK(frame_count >= 8);
  frames_.resize(frame_count);
  for (Frame& f : frames_) {
    f.data.resize(page_bytes_);
  }
}

void BufferPool::MapPage(uint64_t page_id, const Frame* f) {
  if (page_id >= page_to_frame_.size()) {
    page_to_frame_.resize(page_id + 1, kNoFrame);
  }
  page_to_frame_[page_id] = static_cast<uint32_t>(f - frames_.data());
}

BufferPool::Frame* BufferPool::FindResident(uint64_t page_id) {
  const uint32_t slot = SlotOf(page_id);
  if (slot == kNoFrame) {
    return nullptr;
  }
  Frame* f = &frames_[slot];
  ++f->pins;
  f->referenced = true;
  return f;
}

BufferPool::Frame* BufferPool::FetchResident(uint64_t page_id) {
  Frame* f = FindResident(page_id);
  if (f != nullptr) {
    stats_.fetches.Add();
    stats_.hits.Add();
  }
  return f;
}

const BufferPool::Frame* BufferPool::Peek(uint64_t page_id) const {
  const uint32_t slot = SlotOf(page_id);
  return slot == kNoFrame ? nullptr : &frames_[slot];
}

BufferPool::Frame* BufferPool::EvictOne() {
  // CLOCK over clean, unpinned, valid frames; invalid frames are free
  // unless pinned, which marks a frame a miss is reading into.
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& f = frames_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.pins > 0) {
      continue;
    }
    if (!f.valid) {
      return &f;
    }
    if (f.dirty || f.in_checkpoint) {
      continue;
    }
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    page_to_frame_[f.page_id] = kNoFrame;
    f.valid = false;
    stats_.evictions.Add();
    return &f;
  }
  // Last resort: a clean frame a running checkpoint staged. The frames of a
  // stalled checkpoint plus the dirty frames the throttle allows can fill
  // the pool.
  for (size_t step = 0; step < n; ++step) {
    Frame& f = frames_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % n;
    if (f.pins > 0 || f.dirty) {
      continue;
    }
    if (!f.staged.empty()) {
      evicted_staged_.emplace(f.page_id, f.staged);
    }
    f.in_checkpoint = false;
    f.staged = {};
    page_to_frame_[f.page_id] = kNoFrame;
    f.valid = false;
    stats_.evictions.Add();
    stats_.staged_evictions.Add();
    return &f;
  }
  RL_UNREACHABLE(
      "buffer pool exhausted: every frame is pinned or dirty — the engine "
      "must checkpoint before the dirty set fills the pool");
}

Task<BufferPool::Frame*> BufferPool::Fetch(uint64_t page_id) {
  stats_.fetches.Add();
  while (true) {
    if (Frame* f = FindResident(page_id)) {
      stats_.hits.Add();
      co_return f;
    }
    // Someone else already reading this page? Wait, then retry the lookup.
    if (auto it = pending_reads_.find(page_id); it != pending_reads_.end()) {
      auto completion = it->second;
      co_await completion->Wait();
      continue;
    }
    break;
  }
  stats_.misses.Add();
  if (const auto it = evicted_staged_.find(page_id);
      it != evicted_staged_.end()) {
    // The device still holds the pre-checkpoint version. The staged prefix
    // and a zero tail make the canonical page the in-place write will hold.
    const std::span<const uint8_t> image = it->second;
    evicted_staged_.erase(it);
    Frame* f = EvictOne();
    std::fill(std::copy(image.begin(), image.end(), f->data.begin()),
              f->data.end(), uint8_t{0});
    f->in_checkpoint = true;
    f->staged = image;
    f->page_id = page_id;
    f->valid = true;
    f->dirty = false;
    f->pins = 1;
    f->referenced = true;
    MapPage(page_id, f);
    co_return f;
  }
  auto completion = std::make_shared<rlsim::Completion<bool>>(sim_);
  pending_reads_.emplace(page_id, completion);

  // The frame stays pinned while invalid during the read, so no other miss
  // or Create can take it before the read lands.
  Frame* f = EvictOne();
  f->pins = 1;
  const rlsim::TimePoint start = sim_.now();
  bool ok = false;
  try {
    ok = co_await ReadPageDirect(page_id, f->data);
  } catch (...) {
    // The machine died under the read (e.g. guest crash unwinding the
    // paravirtual request). Resolve the pending-read record so waiters do
    // not park forever on a completion nobody will ever fire — each retries
    // and unwinds through its own failure path.
    f->pins = 0;
    pending_reads_.erase(page_id);
    completion->Complete(false);
    throw;
  }
  if (!ok) {
    f->pins = 0;
    pending_reads_.erase(page_id);
    completion->Complete(false);
    throw EngineHalted();
  }
  RL_CHECK_MSG(PageValid(f->data, page_id),
               "corrupt page " << page_id
                               << " reached the buffer pool (recovery must "
                                  "repair pages first)");
  stats_.read_latency.RecordDuration(sim_.now() - start);
  stats_.page_reads.Add();

  f->page_id = page_id;
  f->valid = true;
  f->dirty = false;
  f->pins = 1;
  f->referenced = true;
  MapPage(page_id, f);
  pending_reads_.erase(page_id);
  completion->Complete(true);
  co_return f;
}

BufferPool::Frame* BufferPool::Create(uint64_t page_id) {
  RL_CHECK_MSG(SlotOf(page_id) == kNoFrame,
               "Create of resident page " << page_id);
  Frame* f = EvictOne();
  std::fill(f->data.begin(), f->data.end(), uint8_t{0});
  f->page_id = page_id;
  f->valid = true;
  f->dirty = true;
  ++dirty_count_;
  f->pins = 1;
  f->referenced = true;
  MapPage(page_id, f);
  return f;
}

void BufferPool::Unpin(Frame* frame, bool mark_dirty) {
  RL_CHECK(frame != nullptr && frame->pins > 0);
  if (mark_dirty && !frame->dirty) {
    frame->dirty = true;
    ++dirty_count_;
  }
  --frame->pins;
}

std::vector<BufferPool::Frame*> BufferPool::DirtyFrames() {
  std::vector<Frame*> out;
  for (Frame& f : frames_) {
    if (f.valid && f.dirty) {
      out.push_back(&f);
    }
  }
  // Page order, not frame order: CLOCK reuse scatters page ids across the
  // frame slots, and the checkpoint's in-place phase writes in this order.
  std::sort(out.begin(), out.end(), [](const Frame* a, const Frame* b) {
    return a->page_id < b->page_id;
  });
  return out;
}

void BufferPool::MarkClean(Frame* frame) {
  if (frame->dirty) {
    frame->dirty = false;
    RL_CHECK(dirty_count_ > 0);
    --dirty_count_;
  }
}

void BufferPool::Stage(Frame* frame, std::span<const uint8_t> image) {
  RL_CHECK(!image.empty() && image.size() <= page_bytes_ &&
           image.size() % rlstor::kSectorSize == 0);
  frame->in_checkpoint = true;
  frame->staged = image;
}

void BufferPool::Unstage(uint64_t page_id) {
  if (const uint32_t slot = SlotOf(page_id); slot != kNoFrame) {
    frames_[slot].staged = {};
  } else {
    evicted_staged_.erase(page_id);
  }
}

void BufferPool::EndCheckpoint() {
  for (Frame& f : frames_) {
    f.in_checkpoint = false;
    f.staged = {};
  }
  evicted_staged_.clear();
}

void BufferPool::Reset() {
  for (Frame& f : frames_) {
    f.valid = false;
    f.dirty = false;
    f.in_checkpoint = false;
    f.staged = {};
    f.pins = 0;
    f.referenced = false;
  }
  page_to_frame_.clear();
  pending_reads_.clear();
  evicted_staged_.clear();
  dirty_count_ = 0;
}

Task<bool> BufferPool::WritePageDirect(uint64_t page_id,
                                       std::span<const uint8_t> image,
                                       bool fua) {
  RL_CHECK(image.size() == page_bytes_);
  return WriteImageDirect(PageLba(page_id, page_bytes_), image, fua);
}

Task<bool> BufferPool::WriteImageDirect(uint64_t lba,
                                        std::span<const uint8_t> image,
                                        bool fua) {
  RL_CHECK(!image.empty() && image.size() <= page_bytes_ &&
           image.size() % rlstor::kSectorSize == 0);
  const BlockStatus st = co_await device_.Write(lba, image, fua);
  if (st == BlockStatus::kOk) {
    stats_.page_writes.Add();
  }
  co_return st == BlockStatus::kOk;
}

Task<bool> BufferPool::ReadPageDirect(uint64_t page_id,
                                      std::span<uint8_t> out) {
  RL_CHECK(out.size() == page_bytes_);
  const BlockStatus st =
      co_await device_.Read(PageLba(page_id, page_bytes_), out);
  co_return st == BlockStatus::kOk;
}

}  // namespace rldb
