// One dense, recycled index per live thread, shared by every per-thread
// structure in the process.
//
// The MV engines scale only if a transaction touches no shared cacheline
// beyond the timestamp counter (paper Section 6), so hot state is kept per
// thread: epoch slots, stat and histogram cells, slab magazines,
// transaction-pool caches, log lanes and GC shards. Each of those
// owners is an array indexed by ThreadSlot() (striped owners use
// ThreadSlot() % N).
//
// A thread draws its slot from one latched bitmap on its first call, lowest
// free index first, and a thread_local holder hands it back when the thread
// exits. Owners never hear about the exit: the next thread to draw the index
// inherits the slot's state in every owner (stat tallies, cached slab
// slots, a retired-object queue), and the latch orders the handoff, so
// each slot has one writer at a time.
//
// ThreadSlot() returns kNoSlot to calls made after the holder is destroyed
// (other thread_local destructors that run later) and, for life, to a thread
// that found all kMaxThreadSlots slots taken. Every owner keeps exactly one
// slotless fallback for those calls.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/port.h"

namespace mvstore {

/// Threads that can hold a slot at once; later threads run slotless.
inline constexpr uint32_t kMaxThreadSlots = 512;
inline constexpr uint32_t kNoSlot = ~uint32_t{0};

namespace thread_slot_internal {
inline constexpr uint32_t kUnset = kNoSlot - 1;
/// kUnset before the first call; kNoSlot after teardown or a failed draw.
inline thread_local uint32_t slot = kUnset;
uint32_t Draw();
}  // namespace thread_slot_internal

/// The calling thread's slot in [0, kMaxThreadSlots), or kNoSlot.
inline uint32_t ThreadSlot() {
  uint32_t slot = thread_slot_internal::slot;
  if (MVSTORE_LIKELY(slot < kMaxThreadSlots)) return slot;
  if (slot == thread_slot_internal::kUnset) return thread_slot_internal::Draw();
  return kNoSlot;
}

/// One past the highest slot ever drawn: owners scan [0, ThreadSlotBound()).
uint32_t ThreadSlotBound();

/// A lazily allocated T per slot, for per-thread state too large to keep
/// kMaxThreadSlots copies of. A T lives as long as its owner and passes from
/// one holder of the slot to the next.
template <typename T>
class PerThreadSlot {
 public:
  PerThreadSlot() = default;
  ~PerThreadSlot() {
    for (auto& item : items_) delete item.load(std::memory_order_relaxed);
  }
  PerThreadSlot(const PerThreadSlot&) = delete;
  PerThreadSlot& operator=(const PerThreadSlot&) = delete;

  /// The caller's T, allocated on its slot's first use; nullptr if slotless.
  T* Mine() {
    uint32_t slot = ThreadSlot();
    if (slot == kNoSlot) return nullptr;
    T* item = items_[slot].load(std::memory_order_relaxed);
    if (MVSTORE_UNLIKELY(item == nullptr)) {
      item = new T();
      items_[slot].store(item, std::memory_order_release);
    }
    return item;
  }

  /// Calls `f(T&)` on every allocated T; their holders may be writing.
  template <typename F>
  void ForEach(F&& f) const {
    uint32_t bound = ThreadSlotBound();
    for (uint32_t s = 0; s < bound; ++s) {
      if (T* item = items_[s].load(std::memory_order_acquire)) f(*item);
    }
  }

 private:
  std::array<std::atomic<T*>, kMaxThreadSlots> items_{};
};

}  // namespace mvstore
