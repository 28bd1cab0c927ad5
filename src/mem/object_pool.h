// Object pool for transaction objects.
//
// MVEngine::Begin used to pay `new Transaction` (and the matching epoch-
// deferred `delete`) per transaction -- a global-allocator round trip plus
// the reallocation of every read/write/scan-set vector from scratch. The
// pool recycles *constructed* objects instead: a released transaction keeps
// its vectors' capacity, so a recycled Begin is a handful of stores.
//
// Requirements on T: `T(Args...)` constructs a fresh object and
// `void Reset(Args...)` restores every field of a recycled one to its
// just-constructed state -- the pool hands out recycled objects with no
// other cleanup.
//
// Recycled objects circulate like slab slots (mem/slab_allocator.h): a
// latch-free cache per ThreadSlot() (util/thread_slot.h) over a spin-latched
// global freelist. A cache outlives its thread and serves the next holder of
// the slot; a caller with no slot goes straight to the freelist. With
// `enabled = false` the pool degrades to plain new/delete, the heap-debug
// configuration (ASan sees every transaction boundary again).
//
// Safety: Release() makes the object immediately reusable by any thread.
// For epoch-protected objects (MV transactions are dereferenced by
// concurrent visibility checks), route Release through
// EpochManager::Retire so no reader can still hold the pointer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/counters.h"
#include "common/port.h"
#include "common/spin_latch.h"
#include "util/thread_slot.h"

namespace mvstore {

template <typename T>
class ObjectPool {
 public:
  static constexpr uint32_t kCacheCapacity = 16;
  static constexpr uint32_t kTransferBatch = kCacheCapacity / 2;

  explicit ObjectPool(bool enabled, StatsCollector* stats = nullptr)
      : enabled_(enabled), stats_(stats) {}

  /// Destroys every object the pool ever created, including ones still
  /// acquired -- callers must have quiesced.
  ~ObjectPool() {
    for (T* obj : all_) delete obj;
  }

  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  /// Hand out an object: recycled (Reset with `args`) when available,
  /// freshly constructed otherwise.
  template <typename... Args>
  T* Acquire(Args&&... args) {
    if (!enabled_) return new T(std::forward<Args>(args)...);
    Cache* c = caches_.Mine();
    if (c != nullptr && c->count > 0) {
      if (stats_ != nullptr) stats_->Add(Stat::kTxnPoolHits);
      T* obj = c->items[--c->count];
      obj->Reset(std::forward<Args>(args)...);
      return obj;
    }
    return AcquireSlow(c, std::forward<Args>(args)...);
  }

  /// Return an object for reuse. The object stays constructed (vector
  /// capacities survive); the next Acquire re-arms it via Reset.
  void Release(T* obj) {
    if (!enabled_) {
      delete obj;
      return;
    }
    Cache* c = caches_.Mine();
    if (c == nullptr) {
      SpinLatchGuard guard(latch_);
      free_.push_back(obj);
      return;
    }
    if (c->count == kCacheCapacity) {
      SpinLatchGuard guard(latch_);
      free_.insert(free_.end(), c->items, c->items + kTransferBatch);
      std::copy(c->items + kTransferBatch, c->items + c->count, c->items);
      c->count -= kTransferBatch;
    }
    c->items[c->count++] = obj;
  }

  bool enabled() const { return enabled_; }

 private:
  struct alignas(kCacheLineSize) Cache {
    uint32_t count = 0;
    T* items[kCacheCapacity];
  };

  /// Refill `c` from the freelist, or serve a slotless caller (`c` ==
  /// nullptr) one object from it.
  template <typename... Args>
  T* AcquireSlow(Cache* c, Args&&... args) {
    T* recycled = nullptr;
    {
      SpinLatchGuard guard(latch_);
      if (!free_.empty()) {
        recycled = free_.back();
        free_.pop_back();
        uint32_t take = c != nullptr ? kTransferBatch - 1 : 0;
        while (take > 0 && !free_.empty()) {
          c->items[c->count++] = free_.back();
          free_.pop_back();
          --take;
        }
      }
    }
    if (recycled != nullptr) {
      if (stats_ != nullptr) stats_->Add(Stat::kTxnPoolHits);
      recycled->Reset(std::forward<Args>(args)...);
      return recycled;
    }
    if (stats_ != nullptr) stats_->Add(Stat::kTxnPoolMisses);
    T* obj = new T(std::forward<Args>(args)...);
    {
      SpinLatchGuard guard(latch_);
      all_.push_back(obj);
    }
    return obj;
  }

  const bool enabled_;
  StatsCollector* const stats_;

  SpinLatch latch_;
  std::vector<T*> free_ GUARDED_BY(latch_);
  /// Latched for writes; the destructor's unlatched sweep is a quiesced-
  /// caller contract (ctors/dtors are exempt from the analysis anyway).
  std::vector<T*> all_ GUARDED_BY(latch_);
  PerThreadSlot<Cache> caches_;
};

}  // namespace mvstore
