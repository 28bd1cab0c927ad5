// EngineCore: the part of the engine every concurrency-control scheme
// shares, and the one interface Database drives all three schemes through.
//
// The paper compares MV/O, MV/L and 1V on one main-memory engine whose
// storage, hash indexes and group-commit log are common, so that only
// concurrency control differs (Section 5). EngineCore is that common part:
// counters, latency histograms, the slow-txn threshold, the catalog, the
// epoch manager, the logger (with its one sink factory), the commit clock
// and the transaction-id source, plus the Begin-time sampling decision,
// the commit-trace recorder and the teardown of the live database image.
// MVEngine (cc/mv_engine.h) and SVEngine (sv/sv_engine.h) derive from it
// and implement the transaction lifecycle and the data operations.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/counters.h"
#include "common/status.h"
#include "common/types.h"
#include "log/logger.h"
#include "obs/histogram.h"
#include "storage/table.h"
#include "txn/timestamp.h"
#include "util/epoch.h"

namespace mvstore {

/// Settings every scheme reads: the log, the memory subsystem and
/// observability. Scheme-specific settings live in MVEngineOptions /
/// SVEngineOptions, which extend this struct.
struct EngineOptions {
  /// Redo logging (paper default: asynchronous group commit).
  LogMode log_mode = LogMode::kAsync;
  /// Empty: in-memory byte-counting sink (NullLogSink). Otherwise a segment
  /// prefix: the log is `<log_path>.<seq>.seg` files (log/log_segment.h).
  /// Existing segments are preserved: the sink resumes appending to the
  /// highest-numbered one, so a reopened database continues the log rather
  /// than truncating history. Use Database::Open (or RecoverDatabase) to
  /// replay that history first.
  std::string log_path;
  /// Durability of file-backed logs. Default (false): batches are flushed
  /// with fflush only — they survive a process crash but NOT an OS crash or
  /// power loss. Set true to fsync every flushed batch (real durability;
  /// with LogMode::kSync, commit then waits on an fsync'd batch). Only
  /// meaningful when log_path is set.
  bool fsync_log = false;
  /// Segments rotate once they reach this size, which is what lets a
  /// completed checkpoint delete (truncate) covered segments. Must be > 0
  /// when log_path is set; 0 reports a broken sink (Database::Open fails).
  uint64_t log_segment_bytes = 64ull << 20;
  /// Group-commit window in microseconds for records nobody waits for
  /// (kAsync): once the log flusher sees a pending commit record it waits
  /// up to this long so those commits coalesce into one flush. A waiting
  /// kSync committer closes it at once (log/logger.h). 0 flushes as soon
  /// as the flusher wakes. Counters: log_group_commits (batches flushed),
  /// log_group_size_sum (records across those batches).
  uint32_t group_commit_us = 0;

  /// Memory subsystem (src/mem/): recycle version slots through per-table
  /// slab allocators and transaction objects through pools, integrated with
  /// epoch reclamation. Off routes every allocation through the global heap
  /// (ASan-style debugging, leak triage). DatabaseOptions defaults it off in
  /// sanitizer builds.
  bool use_slab_allocator = true;

  /// Observability (src/obs/, docs/OBSERVABILITY.md). On: commit-pipeline
  /// phases, txn lifetime, read/scan, GC, checkpoint and recovery latencies
  /// are recorded into striped histograms, exposed through MetricsText /
  /// the kMetrics wire opcode. Off: every Record() is one relaxed load.
  bool enable_latency_histograms = true;
  /// Commits slower than this (microseconds) emit one rate-limited
  /// structured stderr line with the per-phase breakdown (obs/slow_txn.h);
  /// 0 disables.
  uint64_t slow_txn_us = 0;
};

/// Callback deciding whether a payload matches a residual predicate.
using Predicate = std::function<bool(const void* payload)>;
/// Scan consumer; return false to stop the scan.
using ScanConsumer = std::function<bool(const void* payload)>;
/// In-place payload editor used by Update (applied to a private copy on MV,
/// to the row itself under its exclusive lock on 1V).
using Mutator = std::function<void(void* payload)>;

class EngineCore {
 public:
  virtual ~EngineCore();

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  Scheme scheme() const { return scheme_; }

  /// --- schema ---------------------------------------------------------------

  /// Create a table; index 0 is the primary index.
  virtual TableId CreateTable(TableDef def) {
    return catalog_.CreateTable(std::move(def));
  }
  Table& table(TableId id) { return catalog_.table(id); }
  Catalog& catalog() { return catalog_; }

  /// --- transaction lifecycle ------------------------------------------------
  ///
  /// All operations return kAborted statuses when the transaction must die;
  /// the engine has already aborted it in that case and the handle is
  /// invalid. kNotFound / kAlreadyExists leave the transaction running.

  /// Start a transaction of this engine's scheme (MV: MV/L locks, MV/O
  /// validates). `read_only` declares that the transaction will not write.
  virtual Txn* BeginTxn(IsolationLevel isolation, bool read_only) = 0;
  /// Commit; on any failure the transaction is aborted internally and the
  /// returned status carries the abort reason. The handle is invalid after
  /// this call either way.
  virtual Status Commit(Txn* txn) = 0;
  /// User-requested abort. The handle is invalid after this call.
  virtual void Abort(Txn* txn) = 0;
  /// True once the transaction has written anything (its commit will log).
  virtual bool HasWrites(const Txn* txn) const = 0;

  /// --- data operations ------------------------------------------------------

  /// Copy the first row matching `key` on `index_id` into `out`
  /// (payload_size bytes): a Scan that stops at its first row, the same
  /// for every scheme.
  Status Read(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
              void* out);
  /// Visit every row matching `key` and the optional residual predicate.
  virtual Status Scan(Txn* txn, TableId table_id, IndexId index_id,
                      uint64_t key, const Predicate& residual,
                      const ScanConsumer& consumer) = 0;
  /// Visit every row whose `index_id` key lies in [lo, hi], ascending;
  /// `index_id` must name an ordered index.
  virtual Status ScanRange(Txn* txn, TableId table_id, IndexId index_id,
                           uint64_t lo, uint64_t hi, const Predicate& residual,
                           const ScanConsumer& consumer) = 0;
  /// Visit every row of the table through the primary index.
  virtual Status ScanTable(Txn* txn, TableId table_id,
                           const ScanConsumer& consumer) = 0;
  virtual Status Insert(Txn* txn, TableId table_id, const void* payload) = 0;
  virtual Status Update(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key, const Mutator& mutator) = 0;
  virtual Status Delete(Txn* txn, TableId table_id, IndexId index_id,
                        uint64_t key) = 0;

  /// --- commit clock ---------------------------------------------------------

  /// Largest commit timestamp any written log record can carry so far.
  Timestamp CommitClock() const { return clock_.Current(); }
  /// Raise the commit clock to at least `floor`; recovery calls this after
  /// replay so post-recovery records sort after the replayed ones.
  void AdvanceCommitClock(Timestamp floor) { clock_.AdvanceTo(floor); }

  /// --- shared infrastructure ------------------------------------------------

  StatsCollector& stats() { return stats_; }
  obs::LatencyHistograms& hists() { return hists_; }
  EpochManager& epoch() { return epoch_; }
  Logger& logger() { return *logger_; }

 protected:
  EngineCore(Scheme scheme, const EngineOptions& options);

  /// Begin-time sampling decision (obs::SampleThisTxn): the tick count to
  /// store in the new transaction's start_ticks, or 0 when it goes
  /// untraced (its reads and scans in Database::Timed, and its commit).
  /// slow_txn_us forces every transaction traced.
  uint64_t SampleStartTicks() {
    return hists_.enabled() && (slow_txn_ticks_ != 0 || obs::SampleThisTxn())
               ? obs::NowTicks()
               : 0;
  }

  /// True when a commit's WriteLog reaches Logger::Append: the logger is on
  /// and not paused for recovery replay (whose records are already on disk).
  bool LogsCommits() const {
    return logger_->mode() != LogMode::kDisabled && !logger_->replay_paused();
  }

  /// Phase boundaries of one commit (docs/OBSERVABILITY.md). The clock is
  /// read only for transactions Begin sampled (start_ticks != 0), or for
  /// every commit when slow_txn_us is set; otherwise each mark is a branch.
  class CommitTimer {
   public:
    CommitTimer(const EngineCore& core, uint64_t start_ticks)
        : timed_(core.slow_txn_ticks_ != 0 ||
                 (start_ticks != 0 && core.hists_.enabled())),
          start_ticks_(start_ticks),
          enter_(timed_ ? obs::NowTicks() : 0) {}

    /// End of the validate phase. MV marks it after the commit-dependency
    /// wait; 1V has no validate phase and never marks it.
    void MarkValidated() {
      if (timed_) validated_ = obs::NowTicks();
    }
    /// End of the log append. `appended`: this commit's record reached
    /// Logger::Append, whose kSync group wait is then billed separately
    /// (Append resets the thread-local wait on entry, so a commit that
    /// never reached it must not read a previous commit's wait).
    void MarkLogged(bool appended) {
      if (!timed_) return;
      appended_ = appended;
      group_wait_ = appended ? Logger::LastGroupWaitTicks() : 0;
      logged_ = obs::NowTicks();
    }

   private:
    friend class EngineCore;
    const bool timed_;
    const uint64_t start_ticks_;
    const uint64_t enter_;
    uint64_t validated_ = 0;
    uint64_t logged_ = 0;
    uint64_t group_wait_ = 0;
    bool appended_ = false;
  };

  /// Record a finished commit: commit_total, validate (when marked),
  /// log_append net of the group wait, the group wait itself (kSync
  /// appends), txn_lifetime (sampled transactions) and, over the slow-txn
  /// threshold, one slow-txn line. Call after the transaction object is
  /// released; `txn_id` and `writes` are copies.
  void RecordCommit(const CommitTimer& timer, TxnId txn_id, uint64_t writes);

  /// Counters and histograms come first: table slabs, the derived engines'
  /// transaction pools and the logger report into them until they die.
  StatsCollector stats_;
  obs::LatencyHistograms hists_;
  /// SlowTxnThresholdTicks(slow_txn_us); 0 = disabled.
  const uint64_t slow_txn_ticks_;
  Catalog catalog_;
  EpochManager epoch_;
  std::unique_ptr<Logger> logger_;
  /// The one timestamp counter (txn/timestamp.h): MV begin and end
  /// timestamps, and the 1V commit-record order.
  TimestampGenerator clock_;
  TxnIdGenerator txn_ids_;

 private:
  const Scheme scheme_;
};

}  // namespace mvstore
