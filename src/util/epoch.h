// Epoch-based safe memory reclamation.
//
// The storage engine's hash indexes are scanned lock-free (Section 2.1 of the
// paper), and transaction objects are dereferenced by other transactions
// during visibility checks (Sections 2.5-2.7). Neither may be freed while a
// concurrent reader could still hold a raw pointer. We use classic
// three-epoch reclamation:
//
//   * A reader wraps every unsafe region in an EpochGuard, which publishes
//     the global epoch into its thread slot.
//   * Retire(ptr) tags garbage with the epoch current at retirement.
//   * Garbage with tag e is freed once no thread slot publishes an epoch
//     <= e, i.e. every reader that could have seen the object has left.
//
// The epoch advances cooperatively: every kAdvanceInterval retirements the
// retiring thread attempts a bump. There is no dedicated epoch thread.
//
// Sharding: every piece of cross-thread state lives in the participant's
// own cacheline-aligned slot -- its published epoch, its retired-object
// queue, its pending count, its advance ticker. Retiring is a push onto the
// thread's own queue; because a thread tags retirements with a monotone
// clock, each queue is epoch-ordered and a reclamation pass pops eligible
// objects off the front in O(freed), never copying the backlog (the old
// single-vector design compacted O(pending) every pass, quadratic under
// watermark lag). The global epoch is advanced by CAS only when every
// active reader has caught up to it, so the shared line is written once per
// epoch instead of once per attempt. Slots are indexed by ThreadSlot()
// (util/thread_slot.h): a thread that exits leaves its queue in the slot,
// where reclamation passes still drain it, and the next thread to draw the
// slot keeps pushing onto it.
//
// This layer underpins the version garbage collection of Section 2.3
// (gc/garbage_collector.*): the GC decides *when* a version is invisible to
// every transaction (timestamp watermark) and unlinks it from the indexes;
// the epoch layer then decides when the unlinked memory is safe to free
// (no in-flight lock-free scan still holds the pointer). It is also what
// makes the paper's claim that readers "never block" hold at the memory
// level: reclamation never waits for readers, only for their epochs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/port.h"
#include "common/spin_latch.h"

namespace mvstore {

/// Global epoch manager. One instance per Database. A thread uses the slot
/// of its ThreadSlot(); slotless threads fall back to a shared guard count
/// and the orphan list.
class EpochManager {
 public:
  static constexpr uint64_t kIdle = ~uint64_t{0};
  static constexpr uint32_t kAdvanceInterval = 64;

  EpochManager();
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// Enter a protected region. Re-entrant (nested guards share the slot).
  void Enter();
  /// Leave a protected region.
  void Exit();

  /// Deleter invoked once the object is unreachable. `arg` is the context
  /// captured at Retire time -- typically the owning allocator (a Table's
  /// slab, a transaction pool), so recycled memory returns to its slab
  /// instead of the global heap.
  using Deleter = void (*)(void* object, void* arg);

  /// Defer destruction of `object` until no reader can reach it. The deleter
  /// runs on whichever thread performs the reclamation pass.
  void Retire(void* object, Deleter deleter, void* arg = nullptr);

  /// Convenience: retire an object allocated with `new T`.
  template <typename T>
  void RetireObject(T* object) {
    Retire(object, [](void* p, void*) { delete static_cast<T*>(p); });
  }

  /// Try to advance the global epoch and reclaim everything reclaimable.
  /// Called automatically; exposed for tests and shutdown.
  void TryAdvanceAndReclaim();

  /// Reclaim *everything* outstanding. Caller must guarantee no concurrent
  /// guards are live (e.g. database shutdown).
  void DrainAll();

  /// Number of retired-but-not-yet-freed objects (approximate; for tests).
  uint64_t PendingCount() const;

  uint64_t CurrentEpoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// High-water mark of slot indexes used with this manager. Stays bounded
  /// by the peak number of *concurrent* threads, not the total thread count
  /// (tests churn thousands of short-lived threads through here).
  uint32_t UsedSlots() const {
    return used_slots_.load(std::memory_order_acquire);
  }

 private:
  struct Retired {
    void* object;
    Deleter deleter;
    void* arg;
    uint64_t epoch;
  };

  struct alignas(kCacheLineSize) Slot {
    std::atomic<uint64_t> epoch{kIdle};
    std::atomic<uint32_t> nesting{0};
    /// Slot holder only; the slot freelist latch orders the handoff.
    uint32_t retire_ticker = 0;
    /// The slot's retired queue: owner pushes at the back, reclaimers pop
    /// eligible entries off the front. Epoch tags are nondecreasing.
    mutable SpinLatch latch;
    std::deque<Retired> retired GUARDED_BY(latch);
    std::atomic<uint64_t> pending{0};
  };

  Slot* MySlot();
  uint64_t MinActiveEpoch(uint64_t global) const;
  void ReclaimUpTo(uint64_t min_active);

  alignas(kCacheLineSize) std::atomic<uint64_t> global_epoch_{1};
  /// One past the highest slot that entered or retired here: scans stop at
  /// it. Shares global_epoch_'s line, which Enter reads anyway.
  std::atomic<uint32_t> used_slots_{0};

  std::vector<Slot> slots_;

  /// Retirements from slotless threads; drained like a slot queue.
  mutable SpinLatch orphans_latch_;
  std::deque<Retired> orphans_ GUARDED_BY(orphans_latch_);
  std::atomic<uint64_t> orphan_pending_{0};

  /// Guards that could not get a slot (thread teardown, slot exhaustion):
  /// a conservative shared count + epoch floor. The floor only matters while
  /// the count is nonzero and only ever moves down -- conservative is safe.
  std::atomic<uint64_t> slotless_guards_{0};
  std::atomic<uint64_t> slotless_floor_{kIdle};

  /// Keeps concurrent reclamation passes from dog-piling on slot latches.
  SpinLatch reclaim_gate_;
};

/// RAII guard: protects raw pointers read from lock-free structures for the
/// guard's lifetime.
class EpochGuard {
 public:
  explicit EpochGuard(EpochManager& manager) : manager_(manager) {
    manager_.Enter();
  }
  ~EpochGuard() { manager_.Exit(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  EpochManager& manager_;
};

}  // namespace mvstore
