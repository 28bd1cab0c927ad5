// Engine-wide statistics counters.
//
// Hot paths bump counters on every commit, abort, version install and slab
// operation, so the cells they write must be core-private: each thread owns
// the cacheline-aligned cell of its ThreadSlot() (util/thread_slot.h) and
// bumps it with a plain load+store — no RMW, no sharing. Aggregation walks
// the cells at CounterSnapshot()/Get() time. A cell keeps its values when
// its thread exits, and the next holder of the slot adds on top of them.
//
// A thread with no slot (calls from thread_local destructors that run after
// its slot is returned, or more live threads than kMaxThreadSlots) adds to
// a shared overflow cell with fetch_add.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/port.h"
#include "util/thread_slot.h"

namespace mvstore {

/// Which event a counter tracks. Keep in sync with StatNames().
enum class Stat : uint32_t {
  kTxnCommitted = 0,
  kTxnAborted,
  kAbortWriteConflict,
  kAbortValidation,
  kAbortPhantom,
  kAbortCascading,
  kAbortDeadlock,
  kAbortLockFailed,
  kCommitDepsTaken,
  kCommitDepWaits,
  kSpeculativeReads,
  kSpeculativeIgnores,
  kWaitForDepsTaken,
  kPrecommitWaits,
  kVersionsCreated,
  kVersionsCollected,
  kDeadlocksDetected,
  kLockWaits,
  kSlabChunksAllocated,
  kSlabMagazineHits,
  kSlabMagazineMisses,
  kSlabSlotsRecycled,
  kTxnPoolHits,
  kTxnPoolMisses,
  kLogSegmentsRotated,
  kLogSegmentsDeleted,
  kLogWriteErrors,
  kLogGroupCommits,
  kLogGroupSizeSum,
  kCheckpointsTaken,
  kRecoveryTornTails,
  kRecoveryTornBytesDropped,
  kRecoveryRecordsReplayed,
  kRecoveryRecordsSkipped,
  kRecoveryIdempotentApplies,
  kReadOnlyTransitions,
  kWritesRefusedReadOnly,
  kSlowTxnLogged,
  kSlowTxnSuppressed,
  kReads,
  kNumStats,
};

inline const char* StatName(Stat stat) {
  static const char* kNames[] = {
      "txn_committed",      "txn_aborted",        "abort_write_conflict",
      "abort_validation",   "abort_phantom",      "abort_cascading",
      "abort_deadlock",     "abort_lock_failed",  "commit_deps_taken",
      "commit_dep_waits",   "speculative_reads",  "speculative_ignores",
      "waitfor_deps_taken", "precommit_waits",    "versions_created",
      "versions_collected", "deadlocks_detected", "lock_waits",
      "slab_chunks_allocated", "slab_magazine_hits", "slab_magazine_misses",
      "slab_slots_recycled", "txn_pool_hits",     "txn_pool_misses",
      "log_segments_rotated", "log_segments_deleted", "log_write_errors",
      "log_group_commits",  "log_group_size_sum",
      "checkpoints_taken",  "recovery_torn_tails",
      "recovery_torn_bytes_dropped", "recovery_records_replayed",
      "recovery_records_skipped", "recovery_idempotent_applies",
      "read_only_transitions", "writes_refused_read_only",
      "slow_txn_logged",    "slow_txn_suppressed", "reads",
  };
  return kNames[static_cast<uint32_t>(stat)];
}

/// Per-thread-cell counter set. Add() is a single-writer relaxed load+store
/// on the calling thread's own cacheline; Get() aggregates on demand.
class StatsCollector {
 public:
  StatsCollector() : cells_(kMaxThreadSlots) {}

  StatsCollector(const StatsCollector&) = delete;
  StatsCollector& operator=(const StatsCollector&) = delete;

  void Add(Stat stat, uint64_t delta = 1) {
    uint32_t slot = ThreadSlot();
    uint32_t i = static_cast<uint32_t>(stat);
    if (slot != kNoSlot) {
      // Single writer: the slot belongs to this thread until it exits.
      auto& value = cells_[slot].values[i];
      value.store(value.load(std::memory_order_relaxed) + delta,
                  std::memory_order_relaxed);
      return;
    }
    overflow_.values[i].fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Get(Stat stat) const {
    uint32_t i = static_cast<uint32_t>(stat);
    uint64_t total = overflow_.values[i].load(std::memory_order_relaxed);
    uint32_t bound = ThreadSlotBound();
    for (uint32_t c = 0; c < bound; ++c) {
      total += cells_[c].values[i].load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    uint32_t bound = ThreadSlotBound();
    for (uint32_t c = 0; c < bound; ++c) ZeroCell(cells_[c]);
    ZeroCell(overflow_);
  }

  /// Multi-line human-readable dump of all non-zero counters.
  std::string ToString() const {
    std::string out;
    for (uint32_t i = 0; i < static_cast<uint32_t>(Stat::kNumStats); ++i) {
      uint64_t v = Get(static_cast<Stat>(i));
      if (v == 0) continue;
      out += StatName(static_cast<Stat>(i));
      out += "=";
      out += std::to_string(v);
      out += "\n";
    }
    return out;
  }

 private:
  struct alignas(kCacheLineSize) Cell {
    std::array<std::atomic<uint64_t>, static_cast<uint32_t>(Stat::kNumStats)>
        values{};
  };

  static void ZeroCell(Cell& cell) {
    for (auto& value : cell.values) value.store(0, std::memory_order_relaxed);
  }

  std::vector<Cell> cells_;
  Cell overflow_{};
};

}  // namespace mvstore
