// Slab allocation of fixed-size slots with thread-local magazine caches.
//
// The paper's performance claim is that the only shared critical section in
// the MV engine is one atomic timestamp increment (Section 6). Paying a
// global `::operator new` / `::operator delete` round trip per version would
// reintroduce an allocator lock on every update, so versions (and
// transaction objects, see mem/object_pool.h) are recycled through slabs
// instead, the way Hekaton recycles fixed-size version slots through its
// epoch machinery.
//
// Layout: one allocator per fixed slot size (per table: a version's size is
// determined by the table's index count and payload size). Slots are carved
// out of large chunks and never returned to the OS until the allocator dies;
// freed slots circulate through three tiers:
//
//   per-thread magazine    --  array of slot pointers for the caller's
//                              ThreadSlot() (util/thread_slot.h), touched
//                              only by that slot's holder: the hot path is
//                              latch-free
//   global freelist spine  --  spin-latched; magazines refill from / flush
//                              to it in half-magazine batches
//   chunk bump region      --  fresh slots, carved under the same latch
//
// Frees may come from any thread (GC and epoch reclamation run wherever
// retirement happens); a slot freed on thread A enters A's magazine and
// migrates to other threads through the spine. A magazine outlives its
// thread: the next thread to draw the same slot allocates from it. A caller
// with no slot allocates and frees one slot at a time under the spine latch.
//
// Safety: a slot handed back via Free() may be handed out again by the next
// Allocate() with no quarantine. Callers must ensure no concurrent reader
// can still dereference the slot -- in the engine this is exactly what
// epoch-based reclamation guarantees (versions reach Free() only through
// EpochManager::Retire / unpublished-version paths).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/counters.h"
#include "common/port.h"
#include "common/spin_latch.h"
#include "util/thread_slot.h"

namespace mvstore {

class SlabAllocator {
 public:
  /// Slots per magazine. Sized so a magazine (one cache-line-aligned block
  /// of pointers) absorbs a transaction's worth of churn without touching
  /// the spine latch.
  static constexpr uint32_t kMagazineCapacity = 64;
  /// Refill/flush batch: half a magazine, so a freshly refilled thread can
  /// absorb a burst of frees (and vice versa) before taking the latch again.
  static constexpr uint32_t kTransferBatch = kMagazineCapacity / 2;
  /// Every slot is aligned to this (chunks come max-aligned from
  /// ::operator new and slot sizes are rounded up to a multiple).
  static constexpr size_t kSlotAlign = 16;
  /// Chunks are at least this large (and always hold >= kTransferBatch
  /// slots) so chunk allocation stays rare.
  static constexpr size_t kMinChunkBytes = 64 * 1024;

  /// `stats` may be nullptr (no counter export). The allocator hands out
  /// slots of exactly `slot_size` bytes rounded up to kSlotAlign.
  explicit SlabAllocator(size_t slot_size, StatsCollector* stats = nullptr);
  ~SlabAllocator();

  SlabAllocator(const SlabAllocator&) = delete;
  SlabAllocator& operator=(const SlabAllocator&) = delete;

  /// Get one slot. Hot path: pop from this thread's magazine, no latch.
  void* Allocate() {
    Magazine* m = magazines_.Mine();
    if (MVSTORE_LIKELY(m != nullptr && m->count > 0)) {
      Count(Stat::kSlabMagazineHits);
      return m->slots[--m->count];
    }
    return AllocateSlow(m);
  }

  /// Return one slot. Hot path: push onto this thread's magazine.
  void Free(void* slot) {
    Count(Stat::kSlabSlotsRecycled);
    Magazine* m = magazines_.Mine();
    if (MVSTORE_UNLIKELY(m == nullptr)) {
      SpinLatchGuard guard(latch_);
      spine_.push_back(slot);
      return;
    }
    if (m->count == kMagazineCapacity) FlushMagazine(*m);
    m->slots[m->count++] = slot;
  }

  size_t slot_size() const { return slot_size_; }

  /// Chunks carved so far (for tests; exact).
  uint64_t chunks_allocated() const {
    return chunks_allocated_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(kCacheLineSize) Magazine {
    uint32_t count = 0;
    void* slots[kMagazineCapacity];
  };

  void Count(Stat stat) {
    if (stats_ != nullptr) stats_->Add(stat);
  }
  /// Refill `m` from the spine, or hand a slotless caller (`m` == nullptr)
  /// one slot.
  void* AllocateSlow(Magazine* m);
  void FlushMagazine(Magazine& m);
  /// Carve a new chunk.
  void NewChunkLocked() REQUIRES(latch_);

  const size_t slot_size_;
  const size_t chunk_bytes_;
  StatsCollector* const stats_;

  SpinLatch latch_;
  /// Global freelist spine (latched).
  std::vector<void*> spine_ GUARDED_BY(latch_);
  /// All chunks ever carved; freed wholesale at destruction (dtors are
  /// exempt from the analysis).
  std::vector<void*> chunks_ GUARDED_BY(latch_);
  /// Bump region of the newest chunk.
  char* bump_ GUARDED_BY(latch_) = nullptr;
  char* bump_end_ GUARDED_BY(latch_) = nullptr;
  PerThreadSlot<Magazine> magazines_;

  std::atomic<uint64_t> chunks_allocated_{0};
};

}  // namespace mvstore
