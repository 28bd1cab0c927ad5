#include "util/epoch.h"

#include <cassert>

#include "util/thread_slot.h"

namespace mvstore {

EpochManager::EpochManager() : slots_(kMaxThreadSlots) {}

EpochManager::~EpochManager() { DrainAll(); }

EpochManager::Slot* EpochManager::MySlot() {
  uint32_t index = ThreadSlot();
  if (index == kNoSlot) return nullptr;
  // Raise the scan bound before the slot publishes an epoch or a retirement.
  uint32_t used = used_slots_.load(std::memory_order_acquire);
  while (MVSTORE_UNLIKELY(index >= used) &&
         !used_slots_.compare_exchange_weak(used, index + 1,
                                            std::memory_order_seq_cst)) {
  }
  return &slots_[index];
}

void EpochManager::Enter() {
  Slot* slot = MySlot();
  if (slot == nullptr) {
    // Slotless guard (thread teardown or slot exhaustion): a shared count
    // plus a conservative epoch floor. The floor only ever moves down while
    // in use -- too conservative is safe, too fresh is not.
    slotless_guards_.fetch_add(1, std::memory_order_seq_cst);
    uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
    uint64_t floor = slotless_floor_.load(std::memory_order_seq_cst);
    while ((floor == kIdle || epoch < floor) &&
           !slotless_floor_.compare_exchange_weak(floor, epoch,
                                                  std::memory_order_seq_cst)) {
    }
    return;
  }
  uint32_t nesting = slot->nesting.load(std::memory_order_relaxed);
  if (nesting == 0) {
    // seq_cst so the epoch publication is ordered before subsequent loads of
    // shared pointers; pairs with the fence in MinActiveEpoch readers.
    slot->epoch.store(global_epoch_.load(std::memory_order_acquire),
                      std::memory_order_seq_cst);
  }
  slot->nesting.store(nesting + 1, std::memory_order_relaxed);
}

void EpochManager::Exit() {
  uint32_t index = ThreadSlot();
  if (index == kNoSlot) {
    slotless_guards_.fetch_sub(1, std::memory_order_seq_cst);
    return;
  }
  Slot& slot = slots_[index];
  uint32_t nesting = slot.nesting.load(std::memory_order_relaxed);
  assert(nesting > 0);
  slot.nesting.store(nesting - 1, std::memory_order_relaxed);
  if (nesting == 1) {
    slot.epoch.store(kIdle, std::memory_order_release);
  }
}

uint64_t EpochManager::MinActiveEpoch(uint64_t global) const {
  uint64_t min_epoch = global;
  if (slotless_guards_.load(std::memory_order_seq_cst) > 0) {
    uint64_t floor = slotless_floor_.load(std::memory_order_seq_cst);
    if (floor != kIdle && floor < min_epoch) min_epoch = floor;
  }
  uint32_t used = used_slots_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < used; ++i) {
    uint64_t e = slots_[i].epoch.load(std::memory_order_seq_cst);
    if (e != kIdle && e < min_epoch) min_epoch = e;
  }
  return min_epoch;
}

void EpochManager::Retire(void* object, Deleter deleter, void* arg) {
  uint64_t tag = global_epoch_.load(std::memory_order_acquire);
  Slot* slot = MySlot();
  if (slot != nullptr) {
    {
      SpinLatchGuard guard(slot->latch);
      slot->retired.push_back(Retired{object, deleter, arg, tag});
    }
    slot->pending.fetch_add(1, std::memory_order_release);
    if (++slot->retire_ticker % kAdvanceInterval == 0) {
      TryAdvanceAndReclaim();
    }
    return;
  }
  {
    SpinLatchGuard guard(orphans_latch_);
    orphans_.push_back(Retired{object, deleter, arg, tag});
  }
  orphan_pending_.fetch_add(1, std::memory_order_release);
  TryAdvanceAndReclaim();
}

void EpochManager::TryAdvanceAndReclaim() {
  uint64_t epoch = global_epoch_.load(std::memory_order_seq_cst);
  uint64_t min_active = MinActiveEpoch(epoch);
  // Advance only when every active reader has caught up to the current
  // epoch: the shared line is written once per epoch, not once per attempt,
  // and a straggling reader simply leaves the epoch in place.
  if (min_active >= epoch &&
      global_epoch_.compare_exchange_strong(epoch, epoch + 1,
                                            std::memory_order_seq_cst)) {
    min_active = MinActiveEpoch(epoch + 1);
  }
  ReclaimUpTo(min_active);
}

void EpochManager::ReclaimUpTo(uint64_t min_active) {
  // One reclaimer at a time; others piggyback on its work and return.
  if (!reclaim_gate_.TryLock()) return;
  std::vector<Retired> to_free;
  uint32_t used = used_slots_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < used; ++i) {
    Slot& slot = slots_[i];
    if (slot.pending.load(std::memory_order_acquire) == 0) continue;
    uint64_t freed = 0;
    {
      SpinLatchGuard guard(slot.latch);
      // Epoch tags are nondecreasing per queue: pop eligible entries off
      // the front, O(freed), and never touch the backlog.
      while (!slot.retired.empty() &&
             slot.retired.front().epoch < min_active) {
        to_free.push_back(slot.retired.front());
        slot.retired.pop_front();
        ++freed;
      }
    }
    if (freed != 0) slot.pending.fetch_sub(freed, std::memory_order_relaxed);
  }
  if (orphan_pending_.load(std::memory_order_acquire) != 0) {
    // Orphan entries interleave from many dead threads, so tags are not
    // ordered; compact the (cold, small) queue exactly.
    uint64_t freed = 0;
    {
      SpinLatchGuard guard(orphans_latch_);
      size_t kept = 0;
      for (size_t i = 0; i < orphans_.size(); ++i) {
        if (orphans_[i].epoch < min_active) {
          to_free.push_back(orphans_[i]);
          ++freed;
        } else {
          orphans_[kept++] = orphans_[i];
        }
      }
      orphans_.resize(kept);
    }
    if (freed != 0) orphan_pending_.fetch_sub(freed, std::memory_order_relaxed);
  }
  reclaim_gate_.Unlock();
  // Deleters run outside every latch: they may re-enter Retire (slab
  // recycling bumps stats, pools retire containers).
  for (const Retired& r : to_free) r.deleter(r.object, r.arg);
}

void EpochManager::DrainAll() {
  reclaim_gate_.Lock();
  std::vector<Retired> to_free;
  uint32_t used = used_slots_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < used; ++i) {
    Slot& slot = slots_[i];
    uint64_t freed = 0;
    {
      SpinLatchGuard guard(slot.latch);
      while (!slot.retired.empty()) {
        to_free.push_back(slot.retired.front());
        slot.retired.pop_front();
        ++freed;
      }
    }
    if (freed != 0) slot.pending.fetch_sub(freed, std::memory_order_relaxed);
  }
  {
    SpinLatchGuard guard(orphans_latch_);
    uint64_t freed = orphans_.size();
    for (const Retired& r : orphans_) to_free.push_back(r);
    orphans_.clear();
    if (freed != 0) orphan_pending_.fetch_sub(freed, std::memory_order_relaxed);
  }
  reclaim_gate_.Unlock();
  for (const Retired& r : to_free) r.deleter(r.object, r.arg);
}

uint64_t EpochManager::PendingCount() const {
  uint64_t total = orphan_pending_.load(std::memory_order_relaxed);
  uint32_t used = used_slots_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < used; ++i) {
    total += slots_[i].pending.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace mvstore
