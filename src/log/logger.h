// Group-commit redo logger (paper Sections 2.4, 5).
//
// Committing transactions serialize their write sets into per-thread append
// lanes (the per-worker log buffers of Silo, Tu et al., SOSP 2013): a thread
// appends under its own lane's latch only, so commits share no log cache
// line and no log mutex. A background flusher gathers every lane at one
// instant and hands the batch to a sink (segmented files or a byte
// counter), so many commits share one I/O (group commit).
//
// Byte order must respect commit dependencies, because update records are
// diffs: if B read or overwrote A's writes, every log prefix holding B
// must hold A. The flusher therefore latches all lanes before swapping any
// of them out -- each append lands wholly before or wholly after a batch,
// so A is never in a later batch than B -- and writes a batch in end
// timestamp order, since a dependent commit always draws the larger end
// timestamp (MV: its read time is at least the writer's end timestamp;
// 1V: the commit clock is drawn under the write locks).
//
// The paper's experiments run *asynchronous* logging -- transactions do not
// wait for the flush -- so the engine defaults to kAsync; kSync waits until
// the flusher has written the record's lane past it (durable commit) and
// kDisabled removes logging entirely.
//
// Flushing is pipelined, the idea behind Aether (Johnson et al., VLDB 2010)
// and Silo's epoch group commit: while a committer waits, the flusher never
// sleeps on a timer, so the records that arrive during one sink Write+Sync
// go out in the next pass, the moment that fsync returns. The fsync is the
// batching window for durable commits; the group_commit_us timer batches
// only records nobody waits for (kAsync).
#pragma once

#include <array>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/mutex.h"
#include "common/port.h"
#include "common/spin_latch.h"
#include "common/status.h"
#include "common/types.h"
#include "log/log_record.h"
#include "obs/histogram.h"

namespace mvstore {

enum class LogMode : uint8_t {
  kDisabled = 0,
  kAsync,  // group commit, no waiting (paper's configuration)
  kSync,   // wait for the batch containing the record to be flushed
};

/// fsync (POSIX) / _commit (Windows) a stdio stream. Returns false on
/// failure — which means acknowledged bytes may not be on the device, the
/// exact condition durability callers must surface, so never ignore it.
bool PortableFsync(std::FILE* file);

/// Destination for flushed batches.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const uint8_t* data, size_t size) = 0;
  virtual void Sync() {}
  /// Health of the sink: OK, or Internal after an open/write failure (the
  /// sink keeps accepting calls but drops bytes — callers that care about
  /// durability must check).
  virtual Status status() const { return Status::OK(); }
};

/// Counts bytes; used by benchmarks so logging exercises the full
/// serialization + batching path without depending on disk bandwidth.
class NullLogSink : public LogSink {
 public:
  void Write(const uint8_t* data, size_t size) override {
    (void)data;
    bytes_.fetch_add(size, std::memory_order_relaxed);
  }
  uint64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bytes_{0};
};

/// Captures all bytes in memory; for tests that parse the log back.
class MemoryLogSink : public LogSink {
 public:
  void Write(const uint8_t* data, size_t size) override {
    MutexLock guard(mutex_);
    buffer_.insert(buffer_.end(), data, data + size);
  }
  std::vector<uint8_t> Contents() {
    MutexLock guard(mutex_);
    return buffer_;
  }

 private:
  Mutex mutex_;
  std::vector<uint8_t> buffer_ GUARDED_BY(mutex_);
};

/// Observes every batch the flusher hands to the sink, called AFTER the
/// sink's Write+Sync but BEFORE kSync committers are released — the hook a
/// log shipper (src/repl/) uses to make "commit acknowledged" imply
/// "follower has the bytes": a synchronous shipper blocks inside
/// OnFlushedBatch until its followers acknowledge, and only then does the
/// flusher advance the lanes' flushed counts and wake committers.
class CommitObserver {
 public:
  virtual ~CommitObserver() = default;
  /// `data`/`size` is the exact byte range just written to the sink.
  virtual void OnFlushedBatch(const uint8_t* data, size_t size) = 0;
};

class Logger {
 public:
  /// Append lanes. A thread appends to lane ThreadSlot() % kLanes
  /// (util/thread_slot.h); threads beyond kLanes share.
  static constexpr size_t kLanes = 16;

  /// Logger takes ownership of `sink` (must be non-null unless kDisabled).
  ///
  /// `group_commit_us` > 0 opens a group-commit window for records nobody
  /// waits for: once the flusher sees a pending record it waits up to this
  /// long before flushing, so kAsync commits arriving within the window
  /// join the batch and share one sink Write+Sync. A kSync committer or
  /// FlushAll caller parked on the flush closes the window at once; their
  /// records batch behind the in-flight fsync instead. Each counted batch
  /// bumps log_group_commits by 1 and log_group_size_sum by the batch's
  /// record count, so mean group size = sum / commits. 0: the flusher
  /// gathers the lanes as soon as it wakes.
  Logger(LogMode mode, LogSink* sink, uint32_t group_commit_us = 0,
         StatsCollector* stats = nullptr,
         obs::LatencyHistograms* hists = nullptr);
  ~Logger();

  LogMode mode() const { return mode_; }
  uint32_t group_commit_us() const { return group_commit_us_; }

  /// Append one serialized commit record (log_record.h; its leading end
  /// timestamp orders it within a batch). In kSync mode, blocks until the
  /// record's batch has been flushed to the sink.
  void Append(const std::vector<uint8_t>& record);

  /// Flush everything appended before the call (checkpoint barrier,
  /// shutdown, tests). Blocks on the flusher's progress via condition
  /// variable — no spinning.
  void FlushAll();

  /// Recovery replay re-executes committed transactions through the normal
  /// commit path, which would re-append their records to a log that already
  /// holds them. While paused, Append drops records (and kSync does not
  /// wait). Only the recovery driver may use this, and only while no other
  /// thread is committing.
  void PauseForReplay();
  void ResumeAfterReplay();
  /// True between PauseForReplay and ResumeAfterReplay; engines check it to
  /// skip serializing a record Append would drop anyway.
  bool replay_paused() const {
    return replay_paused_.load(std::memory_order_relaxed);
  }

  /// Install (or clear, with nullptr) the post-flush observer. Serialized
  /// against in-flight OnFlushedBatch calls: when SetCommitObserver returns,
  /// the previous observer will never be called again and may be destroyed.
  /// `obs` is not owned and must be cleared before it dies.
  void SetCommitObserver(CommitObserver* obs);

  /// The sink, or nullptr when kDisabled. The logger stays the owner.
  LogSink* sink() { return sink_.get(); }
  /// Health of the sink (OK when disabled): Internal after an open or write
  /// failure, meaning some bytes were dropped and durability is broken.
  Status sink_status() const {
    return sink_ != nullptr ? sink_->status() : Status::OK();
  }

  /// Records appended so far, summed over the lanes.
  uint64_t records_appended() const;

  /// Ticks the calling thread spent in its most recent kSync Append wait
  /// (0 for async/disabled appends). Feeds the slow-txn trace's group-wait
  /// phase without widening Append's signature.
  static uint64_t LastGroupWaitTicks();

 private:
  friend struct TsaNegativeProbe;  // scripts/tsa_fixtures/ (compile-only)

  /// Where one record sits in its lane, and the end timestamp that orders
  /// it within a batch.
  struct RecordRef {
    Timestamp end_ts;
    size_t offset;
    size_t size;
  };

  /// One append lane, on its own cache lines. Owned by the Logger, not by
  /// the thread, so a lane outlives the threads that filled it.
  struct alignas(kCacheLineSize) Lane {
    SpinLatch latch;
    std::vector<uint8_t> bytes GUARDED_BY(latch);
    std::vector<RecordRef> refs GUARDED_BY(latch);
    /// Bytes and records ever appended. Stored only under `latch`; atomic
    /// so FlushAll, the flusher's idle check and records_appended() read
    /// them without it.
    std::atomic<uint64_t> appended{0};
    std::atomic<uint64_t> records{0};
    /// Bytes the flusher has handed to the sink; kSync and FlushAll wait
    /// on it under mutex_.
    std::atomic<uint64_t> flushed{0};
  };

  /// A lane's contents as the flusher swapped them out.
  struct Gathered {
    std::vector<uint8_t> bytes;
    std::vector<RecordRef> refs;
    uint64_t appended = 0;  // the lane's appended count at the swap
  };

  void FlusherLoop();
  /// True while some lane holds bytes the flusher has not gathered.
  bool HasPending() const;
  /// One flusher pass: gather every lane, write the batch, publish the
  /// lanes' flushed counts and wake kSync/FlushAll waiters.
  void FlushPass();
  void GatherLanes();
  void NotifyObserver(const uint8_t* data, size_t size);

  const LogMode mode_;
  const uint32_t group_commit_us_;
  StatsCollector* const stats_;
  obs::LatencyHistograms* const hists_;
  std::unique_ptr<LogSink> sink_;

  std::array<Lane, kLanes> lanes_;

  /// Flusher state: touched by the flusher thread, and by ~Logger once it
  /// has been joined.
  std::array<Gathered, kLanes> gathered_;
  /// A record of a batch drawn from several lanes, pointing into gathered_.
  struct Slice {
    Timestamp end_ts;
    const uint8_t* data;
    size_t size;
  };
  std::vector<Slice> order_;     // end-timestamp order of such a batch
  std::vector<uint8_t> merged_;  // its bytes in that order

  /// Parks the flusher and kSync/FlushAll waiters; appenders never take it
  /// except to wait for kSync.
  Mutex mutex_;
  CondVar flusher_cv_;
  CondVar commit_cv_;

  /// Replay pause (see PauseForReplay); written under mutex_. Atomic so the
  /// engines' WriteLog fast-path check needs no lock.
  std::atomic<bool> replay_paused_{false};

  /// Post-flush hook (see CommitObserver). Guarded by its own mutex, not
  /// mutex_: the flusher holds observer_mutex_ across the callback (which
  /// may block on follower acknowledgements) while committers keep
  /// appending undisturbed.
  Mutex observer_mutex_;
  CommitObserver* observer_ GUARDED_BY(observer_mutex_) = nullptr;

  std::atomic<bool> running_{false};
  /// True while the flusher is parked; appenders skip the wakeup otherwise.
  std::atomic<bool> flusher_idle_{false};
  /// Threads parked in a kSync Append or FlushAll on a flushed count. While
  /// it is nonzero the flusher holds no group-commit window.
  uint32_t waiters_ GUARDED_BY(mutex_) = 0;
  std::thread flusher_;
};

}  // namespace mvstore
