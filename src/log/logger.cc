#include "log/logger.h"

#include <algorithm>
#include <functional>

#include "common/failpoint.h"
#include "util/thread_slot.h"

#if defined(_WIN32)
#include <io.h>
#else
#include <unistd.h>
#endif

namespace mvstore {

bool PortableFsync(std::FILE* file) {
  if (MVSTORE_FAILPOINT("log.fsync")) return false;
#if defined(_WIN32)
  return _commit(_fileno(file)) == 0;
#else
  return ::fsync(fileno(file)) == 0;
#endif
}

Logger::Logger(LogMode mode, LogSink* sink, uint32_t group_commit_us,
               StatsCollector* stats, obs::LatencyHistograms* hists)
    : mode_(mode),
      group_commit_us_(group_commit_us),
      stats_(stats),
      hists_(hists),
      sink_(sink) {
  if (mode_ == LogMode::kDisabled) return;
  running_.store(true, std::memory_order_release);
  flusher_ = std::thread([this] { FlusherLoop(); });
}

Logger::~Logger() {
  if (mode_ == LogMode::kDisabled) return;
  {
    MutexLock guard(mutex_);
    running_.store(false, std::memory_order_release);
  }
  flusher_cv_.NotifyAll();
  if (flusher_.joinable()) flusher_.join();
  // Final drain, including lanes whose threads have exited.
  if (HasPending()) FlushPass();
}

void Logger::SetCommitObserver(CommitObserver* obs) {
  MutexLock guard(observer_mutex_);
  observer_ = obs;
}

void Logger::NotifyObserver(const uint8_t* data, size_t size) {
  MutexLock guard(observer_mutex_);
  if (observer_ != nullptr) observer_->OnFlushedBatch(data, size);
}

namespace {
/// Most recent kSync wait of this thread (see Logger::LastGroupWaitTicks).
thread_local uint64_t tl_last_group_wait_ticks = 0;
}  // namespace

uint64_t Logger::LastGroupWaitTicks() { return tl_last_group_wait_ticks; }

uint64_t Logger::records_appended() const {
  uint64_t records = 0;
  for (const Lane& lane : lanes_) {
    records += lane.records.load(std::memory_order_relaxed);
  }
  return records;
}

void Logger::Append(const std::vector<uint8_t>& record) {
  tl_last_group_wait_ticks = 0;
  if (mode_ == LogMode::kDisabled || record.empty()) return;
  if (replay_paused_.load(std::memory_order_acquire)) {
    return;  // replaying: the record is already on disk
  }
  Lane& lane = lanes_[ThreadSlot() % kLanes];
  uint64_t my_end;
  {
    SpinLatchGuard guard(lane.latch);
    lane.refs.push_back(
        RecordRef{RecordEndTimestamp(record), lane.bytes.size(), record.size()});
    lane.bytes.insert(lane.bytes.end(), record.begin(), record.end());
    // Single writer (the latch holder): plain load + store, no RMW.
    my_end = lane.appended.load(std::memory_order_relaxed) + record.size();
    lane.appended.store(my_end, std::memory_order_release);
    lane.records.store(lane.records.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
  }
  if (mode_ != LogMode::kSync) {
    // Group commit: wake the flusher only when it is actually parked. At
    // high commit rates it never is, so the common path is latch + memcpy
    // only; a missed wakeup costs at most one flusher poll interval.
    if (flusher_idle_.load(std::memory_order_acquire)) {
      flusher_cv_.NotifyOne();
    }
    return;
  }
  const uint64_t wait_start = obs::NowTicks();
  {
    // Notifying under mutex_ means the flusher either saw this record in
    // its idle check or is already parked and gets the wakeup; the raised
    // waiters_ count closes any window it holds.
    MutexLock lock(mutex_);
    ++waiters_;
    flusher_cv_.NotifyOne();
    while (lane.flushed.load(std::memory_order_acquire) < my_end) {
      commit_cv_.Wait(lock);
    }
    --waiters_;
  }
  tl_last_group_wait_ticks = obs::NowTicks() - wait_start;
}

bool Logger::HasPending() const {
  for (size_t i = 0; i < kLanes; ++i) {
    if (lanes_[i].appended.load(std::memory_order_acquire) !=
        gathered_[i].appended) {
      return true;
    }
  }
  return false;
}

void Logger::FlusherLoop() {
  constexpr auto kPollInterval = std::chrono::milliseconds(1);
  while (true) {
    {
      MutexLock lock(mutex_);
      flusher_idle_.store(true, std::memory_order_release);
      // Parked poll: wake on an appender's notify, shutdown, or the poll
      // tick.
      const auto poll_deadline = std::chrono::steady_clock::now() +
                                 kPollInterval;
      while (!HasPending() && running_.load(std::memory_order_acquire)) {
        if (flusher_cv_.WaitUntil(lock, poll_deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      flusher_idle_.store(false, std::memory_order_release);
      if (!HasPending() && !running_.load(std::memory_order_acquire)) return;
      // Group-commit window: the first pending record opens the window; any
      // commit appended before it closes rides the same Write+Sync (one
      // fsync for the whole group). It holds only records nobody waits
      // for: a kSync committer or FlushAll parked on a flushed count closes
      // it at once. Under kSync traffic the in-flight fsync is the window,
      // since whatever arrives during one pass goes out in the next.
      if (group_commit_us_ > 0 && HasPending() &&
          running_.load(std::memory_order_acquire)) {
        const auto window_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(group_commit_us_);
        while (running_.load(std::memory_order_acquire) && waiters_ == 0) {
          if (flusher_cv_.WaitUntil(lock, window_deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
    }
    if (HasPending()) FlushPass();
  }
}

/// NO_THREAD_SAFETY_ANALYSIS: holds all kLanes lane latches at once, taken
/// and released in loops the analysis cannot follow. Every lane is latched
/// before any is swapped, so each append falls wholly before or wholly
/// after the gather (see the file comment of logger.h).
void Logger::GatherLanes() NO_THREAD_SAFETY_ANALYSIS {
  for (Lane& lane : lanes_) lane.latch.Lock();
  for (size_t i = 0; i < kLanes; ++i) {
    Lane& lane = lanes_[i];
    Gathered& g = gathered_[i];
    g.bytes.swap(lane.bytes);
    g.refs.swap(lane.refs);
    g.appended = lane.appended.load(std::memory_order_relaxed);
  }
  for (Lane& lane : lanes_) lane.latch.Unlock();
}

void Logger::FlushPass() {
  GatherLanes();
  // A batch from one lane is already in append order, which respects
  // dependencies: write it as is. Otherwise merge in end-timestamp order.
  const Gathered* only = nullptr;
  size_t lanes_with_data = 0;
  uint64_t records = 0;
  for (const Gathered& g : gathered_) {
    if (g.bytes.empty()) continue;
    only = &g;
    ++lanes_with_data;
    records += g.refs.size();
  }
  const uint8_t* data = nullptr;
  size_t size = 0;
  if (lanes_with_data == 1) {
    data = only->bytes.data();
    size = only->bytes.size();
  } else if (lanes_with_data > 1) {
    order_.clear();
    for (const Gathered& g : gathered_) {
      for (const RecordRef& ref : g.refs) {
        order_.push_back(
            Slice{ref.end_ts, g.bytes.data() + ref.offset, ref.size});
      }
    }
    // Ties (equal end timestamps) only arise from hand-built records; the
    // address breaks them deterministically and keeps a lane's own order.
    std::sort(order_.begin(), order_.end(),
              [](const Slice& a, const Slice& b) {
                if (a.end_ts != b.end_ts) return a.end_ts < b.end_ts;
                return std::less<const uint8_t*>()(a.data, b.data);
              });
    merged_.clear();
    for (const Slice& slice : order_) {
      merged_.insert(merged_.end(), slice.data, slice.data + slice.size);
    }
    data = merged_.data();
    size = merged_.size();
  }
  if (size > 0) {
    const uint64_t sync_start = obs::NowTicks();
    sink_->Write(data, size);
    sink_->Sync();
    if (hists_ != nullptr) hists_->RecordSince(obs::Hist::kLogSync, sync_start);
    NotifyObserver(data, size);
    if (stats_ != nullptr) {
      stats_->Add(Stat::kLogGroupCommits);
      stats_->Add(Stat::kLogGroupSizeSum, records);
    }
  }
  // Publish every lane's progress before taking mutex_: a waiter checks its
  // count under mutex_, so it either sees the new count or is parked by the
  // time NotifyAll runs.
  for (size_t i = 0; i < kLanes; ++i) {
    lanes_[i].flushed.store(gathered_[i].appended, std::memory_order_release);
    gathered_[i].bytes.clear();
    gathered_[i].refs.clear();
  }
  { MutexLock guard(mutex_); }
  commit_cv_.NotifyAll();
}

void Logger::FlushAll() {
  if (mode_ == LogMode::kDisabled) return;
  // Wait for what is appended *now*, not for quiescence: under sustained
  // commit traffic the lanes are a moving target and a barrier chasing them
  // (the checkpointer does this mid-workload) would never return.
  std::array<uint64_t, kLanes> target;
  for (size_t i = 0; i < kLanes; ++i) {
    target[i] = lanes_[i].appended.load(std::memory_order_acquire);
  }
  MutexLock lock(mutex_);
  ++waiters_;
  flusher_cv_.NotifyOne();
  for (size_t i = 0; i < kLanes; ++i) {
    while (lanes_[i].flushed.load(std::memory_order_acquire) < target[i]) {
      commit_cv_.Wait(lock);
    }
  }
  --waiters_;
}

void Logger::PauseForReplay() {
  if (mode_ == LogMode::kDisabled) return;
  FlushAll();  // anything appended before the pause still reaches the sink
  MutexLock guard(mutex_);
  replay_paused_.store(true, std::memory_order_release);
}

void Logger::ResumeAfterReplay() {
  if (mode_ == LogMode::kDisabled) return;
  MutexLock guard(mutex_);
  replay_paused_.store(false, std::memory_order_release);
}

}  // namespace mvstore
