// Global timestamp and transaction-ID generation (paper Section 2.4:
// "Timestamps are drawn from a global, monotonically increasing counter").
//
// The paper calls acquiring a timestamp "the only critical section shared
// by all transactions" and implements it as "a single atomic increment"
// (Section 6); so does TimestampGenerator. Next() (end timestamps, drawn
// only by commits) is one fetch_add; Current() (begin timestamps and the
// Read Committed read time) is one load, so begins write nothing shared.
// EngineCore owns one generator that every scheme draws from.
//
// Snapshot safety, with everything seq_cst: a reader with begin timestamp
// B that sees a writer still Active loaded B before the writer's Preparing
// store, and MVEngine::Commit makes that store before its fetch_add, so
// the writer's end timestamp T > B. Readers that instead catch Preparing
// resolve through AwaitEndTimestamp and the commit-dependency machinery.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/port.h"
#include "common/types.h"
#include "storage/lock_word.h"

namespace mvstore {

class TimestampGenerator {
 public:
  /// Unique end timestamp, strictly greater than every Current() value
  /// observed before the call.
  Timestamp Next() {
    return clock_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Current logical time: the latest drawn timestamp. At or above every
  /// commit that finished before this call, strictly below every timestamp
  /// Next() will return after it.
  Timestamp Current() const { return clock_.load(std::memory_order_seq_cst); }

  /// Raise the clock to at least `floor` (a CAS-max; never lowers it).
  /// Recovery calls this after replay so post-recovery commits draw end
  /// timestamps strictly greater than every timestamp already in the log —
  /// the replay order of a future recovery depends on it.
  void AdvanceTo(Timestamp floor) {
    Timestamp current = clock_.load(std::memory_order_seq_cst);
    while (current < floor && !clock_.compare_exchange_weak(
                                  current, floor, std::memory_order_seq_cst)) {
    }
  }

 private:
  /// On its own cache line: every commit writes it.
  alignas(kCacheLineSize) std::atomic<Timestamp> clock_{0};
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
