// Cooperative garbage collection of obsolete versions (paper Section 2.3).
//
// A version can be discarded once it is visible to no transaction:
//  * versions created by aborted transactions (Begin = infinity) -- garbage
//    immediately;
//  * old versions superseded by a committed update/delete at end timestamp E
//    -- garbage once every live transaction's begin timestamp exceeds E
//    (the watermark; every read time is >= the reader's begin timestamp).
//
// Reclamation = unlink from every index, then epoch-retire the memory (a
// concurrent scan may still hold the pointer).
//
// "Collection is handled cooperatively by all threads": worker threads drain
// a small budget at transaction boundaries; a background thread sweeps up
// the rest.
//
// Thread-affine shards: the queue is split into kShards cacheline-aligned
// shards, and a thread always enqueues into and cooperatively drains shard
// ThreadSlot() % kShards (util/thread_slot.h), so a commit's GC work
// stays on lines that thread owns. A thread draws its end timestamps in
// increasing order, so its shard is ordered by retire_after and a drain pops
// ready items off the front, stopping at the first blocked one. Each shard
// carries its own `pending` count (written under the shard latch, summed by
// PendingCount) and its own `drains_in_flight` count (drains between their
// pop and the end of their unlinks, which RunOnce waits out); there is no
// process-wide GC counter or cursor.
//
// Versions retired by a thread that has exited stay in its shard until
// RunOnce drains them (the background sweeper every gc_interval_us, and
// shutdown) or a later thread on the same shard cooperates; the next thread
// to draw the exited thread's slot lands there. With
// the background thread off they therefore wait for an explicit RunOnce.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <thread>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/spin_latch.h"
#include "common/timing.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "storage/table.h"
#include "txn/txn_table.h"
#include "util/epoch.h"
#include "util/thread_slot.h"

namespace mvstore {

class GarbageCollector {
 public:
  /// Queue shards; a thread uses shard ThreadSlot() % kShards.
  static constexpr uint32_t kShards = 16;

  GarbageCollector(TxnTable& txn_table, EpochManager& epoch,
                   StatsCollector& stats, uint32_t interval_us)
      : txn_table_(txn_table),
        epoch_(epoch),
        stats_(stats),
        interval_us_(interval_us) {}

  ~GarbageCollector() { Stop(); }

  void Start();
  void Stop();

  /// Defer `version` until the watermark passes `retire_after` (the end
  /// timestamp that superseded it).
  void Enqueue(Table* table, Version* version, Timestamp retire_after);

  /// `version` is garbage now (aborted creator). Still goes through
  /// unlink + epoch retirement.
  void EnqueueImmediate(Table* table, Version* version);

  /// Worker-thread cooperation: reclaim up to `budget` ready versions from
  /// the calling thread's own shard. Returns the number reclaimed.
  uint32_t Cooperate(uint32_t budget);

  /// Reclaim everything currently ready. For the background thread, tests
  /// and shutdown. When RunOnce returns, every item that any concurrent
  /// drain (another RunOnce or a worker's Cooperate) had already popped has
  /// been unlinked too: Drain unlinks outside the shard latch, so without
  /// the mutex + in-flight wait a caller could observe popped-but-
  /// still-linked versions.
  uint64_t RunOnce();

  /// Versions queued and not yet popped by a drain (exact once every
  /// enqueuer and drainer is quiescent).
  uint64_t PendingCount() const;

  /// Current GC watermark: versions that died before this timestamp are
  /// unreachable by every present and future reader.
  Timestamp Watermark(Timestamp now) { return txn_table_.MinActiveBeginTs(now); }

  /// Watermark refreshed at most every ~200us, and monotone. Computing the
  /// exact value scans the whole transaction table; per-commit cooperative
  /// GC must not pay that. The table owns the cache so every consumer sees
  /// one consistent, never-regressing value.
  Timestamp CachedWatermark(Timestamp now) {
    return txn_table_.CachedMinActiveBeginTs(now);
  }

  /// Set the clock used for the watermark fallback (no active txns).
  void SetNowSource(Timestamp (*now_fn)(void*), void* arg) {
    now_fn_ = now_fn;
    now_arg_ = arg;
  }

  /// Record full-pass durations into `hists` (gc_pass; may be null). Set
  /// before Start(), unsynchronized otherwise.
  void SetHistograms(obs::LatencyHistograms* hists) { hists_ = hists; }

 private:
  struct Item {
    Table* table;
    Version* version;
    Timestamp retire_after;  // 0 = immediate
  };

  /// Items a drain pops per latch hold, into a per-thread buffer.
  static constexpr uint32_t kDrainBatch = 64;

  struct alignas(kCacheLineSize) Shard {
    SpinLatch latch;
    std::deque<Item> queue GUARDED_BY(latch);
    /// queue.size(); stored under `latch`, read without it.
    std::atomic<uint64_t> pending{0};
    /// Drains of this shard between their pop and the end of their unlinks.
    std::atomic<uint32_t> drains_in_flight{0};
  };

  Shard& MyShard() { return shards_[ThreadSlot() % kShards]; }
  uint32_t Drain(Shard& shard, Timestamp watermark, uint32_t budget);

  TxnTable& txn_table_;
  EpochManager& epoch_;
  StatsCollector& stats_;
  const uint32_t interval_us_;

  Mutex run_once_mutex_;  // serializes full RunOnce passes
  std::array<Shard, kShards> shards_;

  Timestamp (*now_fn_)(void*) = nullptr;
  void* now_arg_ = nullptr;
  obs::LatencyHistograms* hists_ = nullptr;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace mvstore
