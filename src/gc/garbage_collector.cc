#include "gc/garbage_collector.h"

#include <algorithm>
#include <chrono>
#include <limits>

namespace mvstore {

void GarbageCollector::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] {
    while (running_.load(std::memory_order_acquire)) {
      RunOnce();
      std::this_thread::sleep_for(std::chrono::microseconds(interval_us_));
    }
  });
}

void GarbageCollector::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

void GarbageCollector::Enqueue(Table* table, Version* version,
                               Timestamp retire_after) {
  Shard& shard = MyShard();
  SpinLatchGuard guard(shard.latch);
  shard.queue.push_back(Item{table, version, retire_after});
  // Writers hold the latch: plain load + store, no RMW.
  shard.pending.store(shard.pending.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
}

void GarbageCollector::EnqueueImmediate(Table* table, Version* version) {
  Enqueue(table, version, 0);
}

uint64_t GarbageCollector::PendingCount() const {
  uint64_t pending = 0;
  for (const Shard& shard : shards_) {
    pending += shard.pending.load(std::memory_order_relaxed);
  }
  return pending;
}

uint32_t GarbageCollector::Drain(Shard& shard, Timestamp watermark,
                                 uint32_t budget) {
  // Counted before the first pop: RunOnce takes this latch after us, so it
  // sees the count and waits for our unlinks.
  shard.drains_in_flight.fetch_add(1, std::memory_order_relaxed);
  // Per-thread pop buffer: no heap allocation per drain. Nothing Drain calls
  // re-enters the GC, so one buffer per thread suffices.
  static thread_local std::array<Item, kDrainBatch> batch{};
  uint32_t total = 0;
  while (total < budget) {
    const uint32_t want = std::min(budget - total, kDrainBatch);
    uint32_t n = 0;
    {
      // Pop under the latch; unlink/retire outside it. Stop at the first
      // blocked item: the shard is (mostly) retire_after-ordered.
      SpinLatchGuard guard(shard.latch);
      while (n < want && !shard.queue.empty() &&
             shard.queue.front().retire_after < watermark) {
        batch[n++] = shard.queue.front();
        shard.queue.pop_front();
      }
      shard.pending.store(shard.pending.load(std::memory_order_relaxed) - n,
                          std::memory_order_relaxed);
    }
    for (uint32_t i = 0; i < n; ++i) {
      batch[i].table->UnlinkFromAllIndexes(batch[i].version);
      // The deleter routes the slot back to the owning table's slab (or the
      // heap in fallback mode) once no lock-free scan can still reach it.
      epoch_.Retire(batch[i].version, &Table::VersionDeleter, batch[i].table);
    }
    if (n > 0) stats_.Add(Stat::kVersionsCollected, n);
    total += n;
    if (n < want) break;
  }
  shard.drains_in_flight.fetch_sub(1, std::memory_order_release);
  return total;
}

uint32_t GarbageCollector::Cooperate(uint32_t budget) {
  if (budget == 0) return 0;
  Shard& shard = MyShard();
  if (shard.pending.load(std::memory_order_relaxed) == 0) return 0;
  Timestamp now = now_fn_ != nullptr ? now_fn_(now_arg_) : kInfinity;
  return Drain(shard, CachedWatermark(now), budget);
}

uint64_t GarbageCollector::RunOnce() {
  MutexLock lock(run_once_mutex_);
  const uint64_t t_start =
      (hists_ != nullptr && hists_->enabled()) ? obs::NowTicks() : 0;
  Timestamp now = now_fn_ != nullptr ? now_fn_(now_arg_) : kInfinity;
  Timestamp watermark = Watermark(now);
  uint64_t total = 0;
  for (Shard& shard : shards_) {
    total += Drain(shard, watermark, std::numeric_limits<uint32_t>::max());
  }
  // Our own drains are done; wait out any worker still between its
  // Cooperate pop and the unlink, so our return implies "unlinked".
  for (const Shard& shard : shards_) {
    while (shard.drains_in_flight.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
  }
  if (t_start != 0) hists_->RecordSince(obs::Hist::kGcPass, t_start);
  return total;
}

}  // namespace mvstore
