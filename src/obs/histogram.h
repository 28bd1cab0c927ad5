// Striped latency histograms for the engine's hot paths.
//
// The same discipline as common/counters.h, applied to distributions: each
// thread owns the cacheline-aligned cell of its ThreadSlot()
// (util/thread_slot.h), allocated on the slot's first Record() and kept for
// the slot's next holder, and Record() is a handful of plain load+store
// pairs on that private cell — no RMW, no sharing, ~1ns. A registry-level
// enable flag short-circuits Record() to a single relaxed load when
// observability is off. Aggregation merges the cells into a HistogramData
// snapshot on demand (exposition, bench probes, tests).
//
// Values are recorded in *ticks* of a cheap monotonic clock (rdtsc on
// x86-64, cntvct_el0 on arm64, steady_clock elsewhere): a steady_clock read
// costs tens of ns, which would dwarf an empty-commit hot path; a tick read
// is a few ns. Ticks are converted to wall time only on the cold snapshot
// path, using a lazily calibrated ticks-per-nanosecond ratio.
//
// Bucket scheme ("log2 octaves, 4 linear sub-buckets"): values 0..3 land in
// exact buckets; a value with highest set bit k >= 2 lands in one of four
// sub-buckets of octave k, each 2^(k-2) wide. Quantile estimates report the
// bucket's inclusive upper bound, so they never under-report and over-report
// by at most 25% of the true value (one sub-bucket width over the octave
// base). docs/OBSERVABILITY.md documents this bound; the accuracy test
// asserts it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/port.h"
#include "util/thread_slot.h"

namespace mvstore {
namespace obs {

/// Cheap monotonic clock, in arbitrary ticks. Frequency is constant for the
/// life of the process on every supported platform (invariant TSC assumed,
/// as every modern x86 server provides; cntvct_el0 is architecturally
/// fixed-frequency).
inline uint64_t NowTicks() {
#if defined(__x86_64__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  uint64_t ticks;
  asm volatile("mrs %0, cntvct_el0" : "=r"(ticks));
  return ticks;
#else
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Calibrated conversion ratio (first call spins ~2ms against
/// steady_clock; never call on a hot path — snapshot/exposition only).
double NanosPerTick();

/// Commit-pipeline sampling: the per-phase commit trace (4 clock reads + 4
/// histogram records, ~150ns) would be a double-digit tax on an empty
/// Begin/Commit loop if paid every time, and the overhead budget is < 3%
/// (docs/OBSERVABILITY.md, enforced by histogram_overhead_test). So each
/// thread traces every 32nd transaction it begins — a deterministic
/// round-robin, not a coin flip, so single-threaded tests see a fixed
/// sample count. The decision is made at Begin() and rides the
/// transaction's start_ticks, giving a sampled transaction a coherent
/// whole-pipeline trace. Quantiles from 1-in-32 samples converge on the
/// true distribution at bench/production rates; DatabaseOptions::slow_txn_us
/// != 0 opts into tracing EVERY commit (slow-txn detection must not
/// sample), at the documented full-tracing cost.
constexpr uint64_t kCommitSampleMask = 31;

inline bool SampleThisTxn() {
  thread_local uint64_t counter = 0;
  return ((++counter) & kCommitSampleMask) == 0;
}

inline double TicksToNanos(uint64_t ticks) {
  return static_cast<double>(ticks) * NanosPerTick();
}
inline double TicksToMicros(uint64_t ticks) { return TicksToNanos(ticks) / 1e3; }
inline double TicksToSeconds(uint64_t ticks) { return TicksToNanos(ticks) / 1e9; }
inline uint64_t MicrosToTicks(uint64_t us) {
  return static_cast<uint64_t>(static_cast<double>(us) * 1e3 / NanosPerTick());
}

/// 4 sub-buckets per power-of-two octave; values 0..3 are exact. Highest
/// octave (k = 63) keeps the total at 252.
constexpr uint32_t kNumBuckets = 252;

inline uint32_t BucketIndex(uint64_t value) {
  if (value < 4) return static_cast<uint32_t>(value);
  uint32_t k = 63 - static_cast<uint32_t>(__builtin_clzll(value));
  return (k - 1) * 4 + static_cast<uint32_t>((value >> (k - 2)) & 3);
}

/// Inclusive upper bound of bucket `index` (the quantile estimate).
inline uint64_t BucketUpperBound(uint32_t index) {
  if (index < 4) return index;
  uint32_t k = index / 4 + 1;
  uint64_t sub = index % 4;
  return ((4 + sub + 1) << (k - 2)) - 1;
}

/// A plain, single-threaded histogram: the merge target for snapshots, the
/// serial oracle in tests, and the per-point diff carrier in benches.
struct HistogramData {
  std::array<uint64_t, kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;

  void Record(uint64_t value) {
    buckets[BucketIndex(value)]++;
    count++;
    sum += value;
    if (value > max) max = value;
  }

  void Merge(const HistogramData& other) {
    for (uint32_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    if (other.max > max) max = other.max;
  }

  /// Bucket-wise `this - base` (clamped), for interval deltas between two
  /// snapshots of a monotone histogram. `max` keeps this snapshot's value:
  /// the interval max is unknowable from bucket counts, and keeping the
  /// running max preserves the never-under-report property.
  void Subtract(const HistogramData& base) {
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
      buckets[i] -= std::min(buckets[i], base.buckets[i]);
    }
    count -= std::min(count, base.count);
    sum -= std::min(sum, base.sum);
  }

  /// Smallest bucket upper bound covering at least q of the recorded
  /// values (q in [0,1]). 0 when empty. Never underestimates the true
  /// quantile; overestimates by <= 25% (see bucket scheme above).
  uint64_t ValueAtQuantile(double q) const {
    if (count == 0) return 0;
    double target = q * static_cast<double>(count);
    uint64_t seen = 0;
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
      seen += buckets[i];
      if (static_cast<double>(seen) >= target && seen > 0) {
        return BucketUpperBound(i);
      }
    }
    return max;
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Which latency distribution a histogram tracks. Keep in sync with
/// HistName() and the catalog in docs/OBSERVABILITY.md.
enum class Hist : uint32_t {
  kCommitTotal = 0,   // Commit() entry to terminated
  kCommitValidate,    // precommit: finish processing, validation, dep wait
  kCommitLogAppend,   // building + appending the redo record
  kCommitGroupWait,   // waiting for the group-commit flush (kSync)
  kLogSync,           // one flushed batch's sink Write+Sync (log flusher)
  kReplAckWait,       // leader flusher waiting for follower acks (sync repl)
  kTxnLifetime,       // Begin() to commit
  kReadLatency,       // Database::Read
  kScanLatency,       // Database::Scan / ScanRange / ScanTable
  kGcPass,            // GarbageCollector::RunOnce
  kCheckpoint,        // Checkpointer::Take
  kRecoveryReplay,    // ReplayRecords
  kNumHists,
};

inline const char* HistName(Hist hist) {
  static const char* kNames[] = {
      "commit_total",      "commit_validate", "commit_log_append",
      "commit_group_wait", "log_sync",        "repl_ack_wait",
      "txn_lifetime",      "read_latency",    "scan_latency",
      "gc_pass",           "checkpoint",      "recovery_replay",
  };
  return kNames[static_cast<uint32_t>(hist)];
}

/// Per-thread-cell histogram set. Record() touches only the calling
/// thread's cell; Snapshot() merges cells on demand. Cells are ~22KB each
/// and allocated lazily, so idle registries (one per engine) cost only the
/// slot table.
class LatencyHistograms {
 public:
  explicit LatencyHistograms(bool enabled = true) : enabled_(enabled) {}

  LatencyHistograms(const LatencyHistograms&) = delete;
  LatencyHistograms& operator=(const LatencyHistograms&) = delete;

  /// When disabled, Record() is one relaxed load and a branch — a true
  /// no-op: no cell is allocated, no bucket is touched.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void Record(Hist hist, uint64_t value) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    uint32_t h = static_cast<uint32_t>(hist);
    Cell* cell = cells_.Mine();
    if (cell != nullptr) {
      // Single writer: the slot belongs to this thread until it exits.
      Slot& slot = cell->slots[h];
      auto& bucket = slot.buckets[BucketIndex(value)];
      bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
      slot.sum.store(slot.sum.load(std::memory_order_relaxed) + value,
                     std::memory_order_relaxed);
      if (value > slot.max.load(std::memory_order_relaxed)) {
        slot.max.store(value, std::memory_order_relaxed);
      }
      return;
    }
    SharedRecord(overflow_.slots[h], value);
  }

  /// Convenience: elapsed ticks since `start_ticks`.
  void RecordSince(Hist hist, uint64_t start_ticks) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    Record(hist, NowTicks() - start_ticks);
  }

  /// Merge every cell (per-thread and overflow) for one histogram. Cold
  /// path; concurrent Record()s may or may not be included (torn per-value
  /// reads are impossible — each bucket is a single atomic).
  HistogramData Snapshot(Hist hist) const {
    HistogramData out;
    uint32_t h = static_cast<uint32_t>(hist);
    MergeSlot(overflow_.slots[h], &out);
    cells_.ForEach([&](const Cell& cell) { MergeSlot(cell.slots[h], &out); });
    return out;
  }

  void Reset() {
    cells_.ForEach([](Cell& cell) { ZeroCell(&cell); });
    ZeroCell(&overflow_);
  }

  /// Per-thread cells allocated so far (tests).
  uint32_t UsedCells() const {
    uint32_t used = 0;
    cells_.ForEach([&](const Cell&) { ++used; });
    return used;
  }

 private:
  struct Slot {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> max{0};
  };

  struct alignas(kCacheLineSize) Cell {
    std::array<Slot, static_cast<uint32_t>(Hist::kNumHists)> slots{};
  };

  /// fetch_add path for slotless callers (more live threads than
  /// kMaxThreadSlots, or records from thread_local destructors after the
  /// thread's slot was returned).
  static void SharedRecord(Slot& slot, uint64_t value) {
    slot.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    slot.sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = slot.max.load(std::memory_order_relaxed);
    while (value > seen &&
           !slot.max.compare_exchange_weak(seen, value,
                                           std::memory_order_relaxed)) {
    }
  }

  static void MergeSlot(const Slot& slot, HistogramData* out) {
    for (uint32_t i = 0; i < kNumBuckets; ++i) {
      uint64_t n = slot.buckets[i].load(std::memory_order_relaxed);
      out->buckets[i] += n;
      out->count += n;
    }
    out->sum += slot.sum.load(std::memory_order_relaxed);
    uint64_t m = slot.max.load(std::memory_order_relaxed);
    if (m > out->max) out->max = m;
  }

  static void ZeroCell(Cell* cell) {
    for (auto& slot : cell->slots) {
      for (auto& bucket : slot.buckets) {
        bucket.store(0, std::memory_order_relaxed);
      }
      slot.sum.store(0, std::memory_order_relaxed);
      slot.max.store(0, std::memory_order_relaxed);
    }
  }

  std::atomic<bool> enabled_;
  PerThreadSlot<Cell> cells_;
  Cell overflow_{};
};

}  // namespace obs
}  // namespace mvstore
