#include "mem/slab_allocator.h"

#include <algorithm>
#include <new>

namespace mvstore {

SlabAllocator::SlabAllocator(size_t slot_size, StatsCollector* stats)
    : slot_size_((std::max(slot_size, sizeof(void*)) + kSlotAlign - 1) &
                 ~(kSlotAlign - 1)),
      chunk_bytes_(std::max(kMinChunkBytes,
                            slot_size_ * static_cast<size_t>(kTransferBatch))),
      stats_(stats) {}

SlabAllocator::~SlabAllocator() {
  for (void* chunk : chunks_) ::operator delete(chunk);
}

void SlabAllocator::NewChunkLocked() {
  void* chunk = ::operator new(chunk_bytes_);
  chunks_.push_back(chunk);
  bump_ = static_cast<char*>(chunk);
  bump_end_ = bump_ + (chunk_bytes_ / slot_size_) * slot_size_;
  chunks_allocated_.fetch_add(1, std::memory_order_relaxed);
  Count(Stat::kSlabChunksAllocated);
}

void* SlabAllocator::AllocateSlow(Magazine* m) {
  Count(Stat::kSlabMagazineMisses);
  void* single = nullptr;
  void** out = m != nullptr ? m->slots : &single;
  uint32_t want = m != nullptr ? kTransferBatch : 1;
  uint32_t filled = 0;
  {
    SpinLatchGuard guard(latch_);
    // Recycled slots first: they are warm and bound memory growth.
    while (filled < want && !spine_.empty()) {
      out[filled++] = spine_.back();
      spine_.pop_back();
    }
    // Top up from the bump region of the newest chunk.
    while (filled < want) {
      if (bump_ == bump_end_) NewChunkLocked();
      out[filled++] = bump_;
      bump_ += slot_size_;
    }
  }
  if (m == nullptr) return single;
  m->count = filled - 1;
  return m->slots[filled - 1];
}

void SlabAllocator::FlushMagazine(Magazine& m) {
  // The magazine is a stack: hand the cold bottom half to the spine and
  // slide the hot top half down.
  {
    SpinLatchGuard guard(latch_);
    spine_.insert(spine_.end(), m.slots, m.slots + kTransferBatch);
  }
  std::copy(m.slots + kTransferBatch, m.slots + m.count, m.slots);
  m.count -= kTransferBatch;
}

}  // namespace mvstore
