// Engine-wide statistics counters.
//
// Hot paths bump counters on every commit, abort, version install and slab
// operation, so the cells they write must be core-private: each thread owns
// a cacheline-aligned cell (acquired through the thread-slot registry and
// recycled on thread exit) and bumps it with a plain load+store — no RMW,
// no sharing. Aggregation walks the cells at CounterSnapshot()/Get() time.
// This generalizes the slab allocator's magazine tally-flush trick to every
// counter in the engine.
//
// A thread whose cell cache has already been torn down (counter bumps from
// other thread-local destructors, e.g. slab magazine flushes) falls back to
// a shared overflow cell with fetch_add; cells released on thread exit fold
// their tallies into a retired cell so history survives recycling.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/port.h"
#include "common/spin_latch.h"
#include "util/tls_slots.h"

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
  /// Upper bound on concurrently registered threads; cells are recycled on
  /// thread exit, overflow shares the fetch_add cell.
  static constexpr uint32_t kMaxCells = 128;

  StatsCollector()
      : registry_id_(tls_slots::RegisterOwner(this, &ReleaseCellTrampoline)),
        cells_(kMaxCells) {}

  ~StatsCollector() {
    // Before any member dies: no thread-exit callback may touch a
    // half-destroyed collector.
    tls_slots::UnregisterOwner(registry_id_);
  }

  StatsCollector(const StatsCollector&) = delete;
  StatsCollector& operator=(const StatsCollector&) = delete;

  void Add(Stat stat, uint64_t delta = 1) {
    Cell* cell = MyCell();
    uint32_t i = static_cast<uint32_t>(stat);
    if (cell != nullptr) {
      // Single writer: the cell belongs to this thread until thread exit.
      cell->values[i].store(
          cell->values[i].load(std::memory_order_relaxed) + delta,
          std::memory_order_relaxed);
      return;
    }
    overflow_.values[i].fetch_add(delta, std::memory_order_relaxed);
  }

  uint64_t Get(Stat stat) const {
    uint32_t i = static_cast<uint32_t>(stat);
    uint64_t total =
        retired_.values[i].load(std::memory_order_relaxed) +
        overflow_.values[i].load(std::memory_order_relaxed);
    uint32_t used = used_cells_.load(std::memory_order_acquire);
    if (used > kMaxCells) used = kMaxCells;
    for (uint32_t c = 0; c < used; ++c) {
      total += cells_[c].values[i].load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    uint32_t used = used_cells_.load(std::memory_order_acquire);
    if (used > kMaxCells) used = kMaxCells;
    for (uint32_t c = 0; c < used; ++c) {
      for (auto& value : cells_[c].values) {
        value.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& value : retired_.values) value.store(0, std::memory_order_relaxed);
    for (auto& value : overflow_.values) value.store(0, std::memory_order_relaxed);
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

  /// High-water mark of cell indexes ever used (tests).
  uint32_t UsedCells() const {
    return used_cells_.load(std::memory_order_acquire);
  }

 private:
  struct StatsCellTag {};
  using CellCache = TlsSlotCache<StatsCellTag>;

  struct alignas(kCacheLineSize) Cell {
    std::array<std::atomic<uint64_t>, static_cast<uint32_t>(Stat::kNumStats)>
        values{};
  };

  Cell* MyCell() {
    uint32_t index = CellCache::Lookup(registry_id_);
    if (index != CellCache::kNone) return &cells_[index];
    return AcquireCell();
  }

  Cell* AcquireCell() {
    uint32_t index = CellCache::kNone;
    {
      SpinLatchGuard guard(freelist_latch_);
      if (!free_cells_.empty()) {
        index = free_cells_.back();
        free_cells_.pop_back();
      } else {
        uint32_t high_water = used_cells_.load(std::memory_order_relaxed);
        if (high_water < kMaxCells) {
          index = high_water;
          used_cells_.store(high_water + 1, std::memory_order_release);
        }
      }
    }
    if (index == CellCache::kNone) return nullptr;  // exhausted: overflow
    if (!CellCache::Store(registry_id_, index)) {
      // Thread tearing down: nothing left to release the cell later.
      ReleaseCell(index);
      return nullptr;
    }
    return &cells_[index];
  }

  static void ReleaseCellTrampoline(void* owner, uint32_t cell) {
    static_cast<StatsCollector*>(owner)->ReleaseCell(cell);
  }

  void ReleaseCell(uint32_t index) {
    // Fold the exiting thread's tallies into the retired cell, zero the
    // cell, and recycle it.
    Cell& cell = cells_[index];
    for (uint32_t i = 0; i < cell.values.size(); ++i) {
      uint64_t v = cell.values[i].load(std::memory_order_relaxed);
      if (v != 0) {
        retired_.values[i].fetch_add(v, std::memory_order_relaxed);
        cell.values[i].store(0, std::memory_order_relaxed);
      }
    }
    SpinLatchGuard guard(freelist_latch_);
    free_cells_.push_back(index);
  }

  const uint64_t registry_id_;
  std::atomic<uint32_t> used_cells_{0};
  SpinLatch freelist_latch_;
  std::vector<uint32_t> free_cells_ GUARDED_BY(freelist_latch_);
  std::vector<Cell> cells_;
  Cell retired_{};
  Cell overflow_{};
};

}  // namespace mvstore
