#include "txn/timestamp.h"

#include "util/thread_slot.h"

namespace mvstore {
namespace {

std::atomic<uint64_t> next_txn_id_instance{1};

}  // namespace

TimestampGenerator::TimestampGenerator(uint32_t block_size)
    : block_size_(block_size == 0 ? 1 : block_size), slots_(kMaxThreadSlots) {}

void TimestampGenerator::PublishDrawn(uint64_t ts) {
  // Skip-if-lower CAS-max: only draws above every prior draw write the
  // shared line, i.e. in steady state only the holder of the highest block.
  uint64_t ceiling = ceiling_.load(std::memory_order_seq_cst);
  while (ceiling < ts && !ceiling_.compare_exchange_weak(
                             ceiling, ts, std::memory_order_seq_cst)) {
  }
}

Timestamp TimestampGenerator::Next() {
  uint32_t index = ThreadSlot();
  if (index == kNoSlot) {
    // Slotless draw (thread teardown or slot exhaustion): a one-timestamp
    // block, degenerating to the unbatched fetch_add.
    uint64_t t = alloc_.fetch_add(1, std::memory_order_seq_cst) + 1;
    PublishDrawn(t);
    return t;
  }
  // The ceiling guard (snapshot safety; see the header comment): a value at
  // or below an already observed begin timestamp must never be drawn, so a
  // block that fell behind the ceiling is abandoned. Fresh blocks start
  // above alloc_ >= ceiling_. Ordering matters: the ceiling load comes
  // after the caller's Preparing store (both seq_cst), which is what pins
  // T > B for every reader that still saw the caller as Active.
  Slot& slot = slots_[index];
  if (slot.next > slot.limit ||
      slot.next <= ceiling_.load(std::memory_order_seq_cst)) {
    uint64_t base = alloc_.fetch_add(block_size_, std::memory_order_seq_cst);
    slot.next = base + 1;
    slot.limit = base + block_size_;
    uint32_t used = used_slots_.load(std::memory_order_relaxed);
    while (index >= used && !used_slots_.compare_exchange_weak(
                                used, index + 1, std::memory_order_release)) {
    }
  }
  uint64_t t = slot.next++;
  PublishDrawn(t);
  return t;
}

void TimestampGenerator::AdvanceTo(Timestamp floor) {
  // Raise the cursor first so no block carved after this call starts below
  // `floor`, then the ceiling so Current() reflects it; stale outstanding
  // blocks retire themselves against the ceiling guard on their next draw.
  uint64_t current = alloc_.load(std::memory_order_seq_cst);
  while (current < floor &&
         !alloc_.compare_exchange_weak(current, floor,
                                       std::memory_order_seq_cst)) {
  }
  PublishDrawn(floor);
}

TxnIdGenerator::TxnIdGenerator(uint64_t start_raw)
    : counter_(start_raw),
      instance_id_(
          next_txn_id_instance.fetch_add(1, std::memory_order_relaxed)) {}

}  // namespace mvstore
