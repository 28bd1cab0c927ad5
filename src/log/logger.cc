#include "log/logger.h"

#include "common/failpoint.h"

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
  // Final drain.
  if (!buffer_.empty() && sink_ != nullptr) {
    sink_->Write(buffer_.data(), buffer_.size());
    sink_->Sync();
    NotifyObserver(buffer_.data(), buffer_.size());
    if (stats_ != nullptr) {
      stats_->Add(Stat::kLogGroupCommits);
      stats_->Add(Stat::kLogGroupSizeSum, buffer_records_);
    }
  }
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

void Logger::Append(const std::vector<uint8_t>& record) {
  tl_last_group_wait_ticks = 0;
  if (mode_ == LogMode::kDisabled || record.empty()) return;
  uint64_t my_lsn;
  {
    MutexLock guard(mutex_);
    if (replay_paused_.load(std::memory_order_relaxed)) {
      return;  // replaying: the record is already on disk
    }
    buffer_.insert(buffer_.end(), record.begin(), record.end());
    ++buffer_records_;
    appended_lsn_ += record.size();
    my_lsn = appended_lsn_;
  }
  records_.fetch_add(1, std::memory_order_relaxed);
  // Group commit: wake the flusher only when it is actually parked. At high
  // commit rates it never is, so the common path is mutex + memcpy only; a
  // missed wakeup costs at most one flusher poll interval.
  if (mode_ == LogMode::kSync ||
      flusher_idle_.load(std::memory_order_acquire)) {
    flusher_cv_.NotifyOne();
  }
  if (mode_ == LogMode::kSync) {
    const uint64_t wait_start = obs::NowTicks();
    {
      MutexLock lock(mutex_);
      while (flushed_lsn_ < my_lsn) commit_cv_.Wait(lock);
    }
    tl_last_group_wait_ticks = obs::NowTicks() - wait_start;
    if (hists_ != nullptr) {
      hists_->Record(obs::Hist::kCommitGroupWait, tl_last_group_wait_ticks);
    }
  }
}

void Logger::FlusherLoop() {
  constexpr auto kPollInterval = std::chrono::milliseconds(1);
  std::vector<uint8_t> batch;
  uint64_t batch_records = 0;
  while (true) {
    {
      MutexLock lock(mutex_);
      flusher_idle_.store(true, std::memory_order_release);
      // Parked poll: wake on an appender's notify, shutdown, or the poll
      // tick — written as an explicit deadline loop (not a predicate
      // lambda) so the thread-safety analysis sees the guarded reads.
      const auto poll_deadline = std::chrono::steady_clock::now() +
                                 kPollInterval;
      while (buffer_.empty() && running_.load(std::memory_order_acquire)) {
        if (flusher_cv_.WaitUntil(lock, poll_deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      flusher_idle_.store(false, std::memory_order_release);
      if (buffer_.empty() && !running_.load(std::memory_order_acquire)) return;
      // Group-commit window: the first pending record opens the window; any
      // commit serialized before it closes rides the same Write+Sync (one
      // fsync for the whole group). Appender wakeups do not close the
      // window — only its deadline or shutdown does — so it holds its full
      // length under traffic.
      if (group_commit_us_ > 0 && !buffer_.empty() &&
          running_.load(std::memory_order_acquire)) {
        const auto window_deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(group_commit_us_);
        while (running_.load(std::memory_order_acquire)) {
          if (flusher_cv_.WaitUntil(lock, window_deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      batch.swap(buffer_);
      batch_records = buffer_records_;
      buffer_records_ = 0;
    }
    if (!batch.empty()) {
      sink_->Write(batch.data(), batch.size());
      sink_->Sync();
      NotifyObserver(batch.data(), batch.size());
      if (stats_ != nullptr) {
        stats_->Add(Stat::kLogGroupCommits);
        stats_->Add(Stat::kLogGroupSizeSum, batch_records);
      }
      batch.clear();
    }
    // Everything not sitting in the (refilled) buffer has been flushed.
    {
      MutexLock guard(mutex_);
      flushed_lsn_ = appended_lsn_ - buffer_.size();
    }
    commit_cv_.NotifyAll();
  }
}

void Logger::FlushAll() {
  if (mode_ == LogMode::kDisabled) return;
  MutexLock lock(mutex_);
  // Wait for what is appended *now*, not for quiescence: under sustained
  // commit traffic appended_lsn_ is a moving target and a barrier chasing
  // it (the checkpointer does this mid-workload) would never return.
  const uint64_t target = appended_lsn_;
  flusher_cv_.NotifyOne();
  while (flushed_lsn_ < target) commit_cv_.Wait(lock);
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
