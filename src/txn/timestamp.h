// Global timestamp and transaction-ID generation (paper Section 2.4:
// "Timestamps are drawn from a global, monotonically increasing counter").
//
// The paper observes that acquiring a timestamp is "the only critical
// section shared by all transactions" in the MV schemes (Section 6). A bare
// fetch_add makes that critical section a single cacheline that every
// transaction invalidates twice (begin and commit). This implementation
// splits the two roles of the clock:
//
//   * Allocation (Next, commits only): each thread carves a private block of
//     end timestamps off the shared `alloc_` cursor, then draws from the
//     block with plain stores to its own cacheline (the slot of its
//     ThreadSlot(), util/thread_slot.h). The shared cursor is touched once
//     per block, not once per commit. A thread with no slot draws unbatched.
//   * Observation (Current, begins and Read Committed read times): a plain
//     load of `ceiling_`, the maximum timestamp drawn so far. Begins write
//     nothing shared.
//
// The ceiling is maintained by Next() with a skip-if-lower CAS-max: a drawn
// timestamp below the current maximum (most draws, once several blocks are
// in flight) publishes nothing, so in steady state one thread at a time --
// the holder of the highest block -- writes the ceiling line while everyone
// else only reads it.
//
// Snapshot safety: a begin timestamp B = ceiling must never be overtaken by
// a later-drawn end timestamp T <= B, or a reader could watch a transaction
// commit "into its past" and observe half of its writes. Blocks make this
// nontrivial -- a block carved long ago can hold undrawn values below the
// current ceiling. The guard is in Next(): a draw whose candidate is at or
// below the ceiling abandons the rest of the block and carves a fresh one
// (fresh blocks start above `alloc_` >= ceiling). Abandoned timestamps are
// simply never emitted, which is what makes abandonment safe; ids are
// unique, not dense. The ordering argument, with everything seq_cst: a
// reader that observes a writer still Active did so before the writer's
// Preparing store (MVEngine::Commit publishes Preparing before drawing),
// hence before the writer's ceiling check, hence that check sees
// ceiling >= B and the writer's end timestamp lands strictly above B.
// Readers that instead catch Preparing resolve through AwaitEndTimestamp
// and the commit-dependency machinery exactly as before.
//
// AdvanceTo (recovery) raises the cursor and the ceiling together; the
// Next() ceiling guard then retires every stale outstanding block, so
// post-recovery commits draw strictly above everything already replayed.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/port.h"
#include "common/types.h"
#include "storage/lock_word.h"

namespace mvstore {

class TimestampGenerator {
 public:
  static constexpr uint32_t kDefaultBlockSize = 16;

  explicit TimestampGenerator(uint32_t block_size = kDefaultBlockSize);

  TimestampGenerator(const TimestampGenerator&) = delete;
  TimestampGenerator& operator=(const TimestampGenerator&) = delete;

  /// Unique end timestamp, strictly greater than every Current() value
  /// observed before the call.
  Timestamp Next();

  /// Current logical time: the maximum drawn timestamp. At or above every
  /// commit that finished before this call, strictly below every timestamp
  /// Next() will return after it. Used for begin timestamps and the Read
  /// Committed read time; writes nothing shared.
  Timestamp Current() const {
    return ceiling_.load(std::memory_order_seq_cst);
  }

  /// Raise the clock to at least `floor`: every later Next() returns a
  /// value > `floor` and every later Current() >= `floor`. Recovery calls
  /// this after replay so post-recovery commits draw end timestamps
  /// strictly greater than every timestamp already in the log — the replay
  /// order of a future recovery depends on it.
  void AdvanceTo(Timestamp floor);

  /// High-water mark of slot indexes that carved a block here (tests).
  uint32_t UsedSlots() const {
    return used_slots_.load(std::memory_order_acquire);
  }

 private:
  /// Indexed by ThreadSlot(). The next holder of a slot continues its
  /// partially drawn block: the slot freelist hands a slot to one thread at
  /// a time and its latch orders the handoff, so draws stay unique.
  struct alignas(kCacheLineSize) Slot {
    /// Next undrawn timestamp of this slot's block; > limit when empty.
    uint64_t next = 1;
    /// Last timestamp of the current block.
    uint64_t limit = 0;
  };

  void PublishDrawn(uint64_t ts);

  const uint32_t block_size_;

  /// Block allocation cursor: timestamps (base, base + block] are owned by
  /// whoever fetch_add'ed base. Invariant: alloc_ >= ceiling_.
  alignas(kCacheLineSize) std::atomic<uint64_t> alloc_{0};
  /// Maximum drawn timestamp (see file comment).
  alignas(kCacheLineSize) std::atomic<uint64_t> ceiling_{0};

  alignas(kCacheLineSize) std::atomic<uint32_t> used_slots_{0};

  std::vector<Slot> slots_;
};

/// Transaction IDs come from their own counter; they live in a disjoint
/// encoding space from timestamps (bit 63 of version words) and must fit
/// the 54-bit MV/L WriteLock field. Threads draw blocks of raw ids and mask
/// each one; on 54-bit wraparound (never reached in practice) the values 0
/// and kNoWriter are skipped. Abandoned block remainders are harmless: ids
/// need to be unique, not dense.
class TxnIdGenerator {
 public:
  static constexpr uint32_t kBlockSize = 64;

  TxnIdGenerator() : TxnIdGenerator(0) {}
  /// `start_raw` pre-positions the raw counter (tests exercise wraparound).
  explicit TxnIdGenerator(uint64_t start_raw);

  TxnId Next() {
    // POD thread-locals: no teardown hazard, and a thread switching between
    // generators just abandons its remainder.
    static thread_local uint64_t cached_instance = 0;
    static thread_local uint64_t next_raw = 0;
    static thread_local uint32_t remaining = 0;
    if (cached_instance != instance_id_) {
      cached_instance = instance_id_;
      remaining = 0;
    }
    while (true) {
      if (remaining == 0) {
        next_raw = counter_.fetch_add(kBlockSize, std::memory_order_relaxed);
        remaining = kBlockSize;
      }
      TxnId id = (++next_raw) & lockword::kWriteLockMask;
      --remaining;
      if (id != 0 && id != lockword::kNoWriter) return id;
    }
  }

 private:
  alignas(kCacheLineSize) std::atomic<uint64_t> counter_;
  const uint64_t instance_id_;
};

}  // namespace mvstore
