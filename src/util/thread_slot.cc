#include "util/thread_slot.h"

#include "common/spin_latch.h"

namespace mvstore {
namespace {

constexpr uint32_t kWords = kMaxThreadSlots / 64;

struct SlotTable {
  SpinLatch latch;
  uint64_t taken[kWords] GUARDED_BY(latch) = {};
  std::atomic<uint32_t> bound{0};
};

// Constant-initialized and trivially destructible, so it is live before the
// first thread starts and after the last thread_local destructor runs.
constinit SlotTable table;

struct Holder {
  ~Holder() {
    uint32_t slot = thread_slot_internal::slot;
    thread_slot_internal::slot = kNoSlot;
    SpinLatchGuard guard(table.latch);
    table.taken[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  }
};

}  // namespace

uint32_t thread_slot_internal::Draw() {
  uint32_t drawn = kNoSlot;
  {
    SpinLatchGuard guard(table.latch);
    for (uint32_t w = 0; w < kWords; ++w) {
      uint64_t free_bits = ~table.taken[w];
      if (free_bits == 0) continue;
      uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(free_bits));
      table.taken[w] |= uint64_t{1} << bit;
      drawn = w * 64 + bit;
      if (drawn >= table.bound.load(std::memory_order_relaxed)) {
        table.bound.store(drawn + 1, std::memory_order_release);
      }
      break;
    }
  }
  slot = drawn;
  if (drawn != kNoSlot) {
    thread_local Holder holder;
    (void)holder;
  }
  return drawn;
}

uint32_t ThreadSlotBound() {
  return table.bound.load(std::memory_order_acquire);
}

}  // namespace mvstore
