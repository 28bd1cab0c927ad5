// Multiversion storage engine with optimistic (MV/O) and pessimistic (MV/L)
// concurrency control (paper Sections 2-4).
//
// One engine hosts both transaction kinds concurrently ("peaceful
// coexistence", Section 4.5): every version uses the MV/L End-word encoding,
// and optimistic transactions honor read locks and bucket locks when the
// engine's honor_locks option is on (the default; turn it off to benchmark a
// pure-optimistic configuration).
//
// Threading model: any thread may run transactions. A transaction object is
// used by its owning thread; other threads touch only its atomic fields and
// latched sets, exactly as the paper's dependency machinery prescribes.
#pragma once

#include <memory>

#include "cc/bucket_lock.h"
#include "cc/deadlock.h"
#include "cc/visibility.h"
#include "common/status.h"
#include "common/types.h"
#include "core/engine_core.h"
#include "gc/garbage_collector.h"
#include "mem/object_pool.h"
#include "txn/transaction.h"
#include "txn/txn_table.h"

namespace mvstore {

/// MV-specific settings; the log, memory and observability settings come
/// from EngineOptions.
struct MVEngineOptions : EngineOptions {
  /// Optimistic transactions honor MV/L read/bucket locks (Section 4.5).
  /// Irrelevant when no pessimistic transactions run, except for the small
  /// cost of the precommit wait-for barrier.
  bool honor_locks = true;

  /// Background garbage collection sweep interval; 0 disables the thread
  /// (cooperative GC still runs).
  uint32_t gc_interval_us = 2000;
  /// Versions reclaimed inline by each committing worker.
  uint32_t cooperative_gc_budget = 16;

  /// Deadlock-detector pass interval; 0 disables the thread.
  uint32_t deadlock_interval_us = 1000;
};

class MVEngine final : public EngineCore {
 public:
  /// `scheme` (MV/L or MV/O) picks the transaction kind BeginTxn hands out;
  /// Begin can start either kind on the same engine.
  explicit MVEngine(MVEngineOptions options = {},
                    Scheme scheme = Scheme::kMultiVersionOptimistic);
  ~MVEngine() override;

  /// --- transaction lifecycle -------------------------------------------------

  /// Start a transaction. `pessimistic` selects MV/L (locking); otherwise
  /// MV/O (validation).
  Transaction* Begin(IsolationLevel isolation, bool pessimistic,
                     bool read_only = false);
  Txn* BeginTxn(IsolationLevel isolation, bool read_only) override {
    return Begin(isolation, scheme() == Scheme::kMultiVersionLocking,
                 read_only);
  }

  Status Commit(Txn* txn) override;
  void Abort(Txn* txn) override;
  bool HasWrites(const Txn* txn) const override {
    return !static_cast<const Transaction*>(txn)->write_set.empty();
  }

  /// --- data operations --------------------------------------------------------

  /// Scan all visible versions matching `key` (plus optional residual
  /// predicate). Serializable transactions register the scan for phantom
  /// protection (MV/O: ScanSet; MV/L: bucket lock). On an ordered index
  /// this is ScanRange(key, key).
  Status Scan(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
              const Predicate& residual,
              const ScanConsumer& consumer) override;

  /// Visit every visible version whose `index_id` key lies in [lo, hi], in
  /// ascending key order, applying the paper's visibility rules per version
  /// at the transaction's read time. `index_id` must name an ordered
  /// (skip-list) index. Serializable transactions (both MV/O and MV/L)
  /// record the range in their RangeScanSet; it is rescanned at precommit
  /// and a version that became visible during the transaction's lifetime
  /// aborts it (phantom).
  Status ScanRange(Txn* txn, TableId table_id, IndexId index_id, uint64_t lo,
                   uint64_t hi, const Predicate& residual,
                   const ScanConsumer& consumer) override;

  /// Visit every visible row of the table as of the transaction's read time
  /// by scanning all buckets of the primary index (Section 2.1: "To scan a
  /// table, one simply scans all buckets of any index on the table").
  /// No phantom protection is registered -- full scans are intended for
  /// snapshot / read-committed readers (reporting); serializable callers
  /// needing full-table stability should use per-key Scans.
  Status ScanTable(Txn* txn, TableId table_id,
                   const ScanConsumer& consumer) override;

  /// Insert a new record. Fails with kAlreadyExists if the primary (unique)
  /// index already holds a visible or in-flight record with the same key.
  Status Insert(Txn* txn, TableId table_id, const void* payload) override;

  /// Update the first visible version matching `key`: copies it, applies
  /// `mutator`, installs the new version.
  Status Update(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
                const Mutator& mutator) override;

  /// Delete the first visible version matching `key`.
  Status Delete(Txn* txn, TableId table_id, IndexId index_id,
                uint64_t key) override;

  /// --- infrastructure access ---------------------------------------------------

  TxnTable& txn_table() { return txn_table_; }
  GarbageCollector& gc() { return *gc_; }
  DeadlockDetector& deadlock_detector() { return *deadlock_; }
  const MVEngineOptions& options() const { return options_; }

 private:
  /// Logical read time for a transaction's reads (Sections 3.1, 4.3.1).
  Timestamp ReadTime(Transaction* txn) const;

  VisibilityContext VisCtx(Transaction* txn, VisibilityMode mode);

  /// Find the first visible version for key on any index kind; nullptr if
  /// none. On conflict requiring abort, sets `status`. `for_update` marks
  /// probes that feed an update/delete (see VisibilityContext::for_update).
  Version* FindVisible(Transaction* txn, Table& table, IndexId index_id,
                       uint64_t key, Timestamp read_time,
                       const Predicate& residual, Status* status,
                       bool for_update = false);

  /// MV/L: acquire a read lock on a latest version (Section 4.2.1).
  /// Returns OK and sets *locked, or an abort status.
  Status AcquireReadLock(Transaction* txn, Version* v, bool* locked);
  /// Release one read lock; wakes the writer when the last lock goes away.
  void ReleaseReadLock(Transaction* txn, Version* v);

  /// Release our own read lock on `v` if we hold one (before write-locking
  /// it, so we never wait on ourselves at precommit).
  void ReleaseOwnReadLock(Transaction* txn, Version* v);

  /// Install a write lock on `v` (Section 2.6 / 4.3.1 "Update version").
  Status InstallWriteLock(Transaction* txn, Version* v);

  /// Serializable MV/L scanner: impose a wait-for dependency on the active
  /// creator of an invisible version (potential phantom, Section 4.2.2).
  /// `read_time` is the caller's scan read time, not a fresh draw: a
  /// version committed between the two would otherwise slip past both the
  /// visibility check and this one.
  Status ImposePhantomDependency(Transaction* txn, Version* v,
                                 Timestamp read_time);

  /// Inserter side of bucket locks: wait-for dependencies on lock holders.
  Status TakeBucketLockDependencies(Transaction* txn, HashIndex::Bucket* bucket);

  /// True when this transaction participates in the wait-for machinery.
  bool UsesWaitFors(const Transaction* txn) const {
    return txn->pessimistic || options_.honor_locks;
  }

  /// End-of-normal-processing (Section 4.3.1): release read/bucket locks,
  /// then wait out wait-for dependencies. Returns false if the transaction
  /// must abort (AbortNow).
  bool FinishNormalProcessing(Transaction* txn);

  /// Optimistic validation: read stability + phantom checks (Section 3.2).
  ///
  /// NO_THREAD_SAFETY_ANALYSIS: iterates txn->read_set without
  /// read_set_latch. Safe by protocol — the owner thread is past its last
  /// AddRead when validation runs, so the latch-free iteration races only
  /// with the deadlock detector's const walk (both readers); taking the
  /// latch here would hold it across every visibility check of the commit.
  Status Validate(Transaction* txn) NO_THREAD_SAFETY_ANALYSIS;

  /// Rescan every registered range scan at the end timestamp: a version
  /// visible now but not at begin time is a phantom. Runs inside Validate
  /// for MV/O; pessimistic serializable transactions with range scans run
  /// it directly at precommit (bucket locks cover hash scans only).
  Status ValidateRangeScans(Transaction* txn);

  /// Write the commit record (Section 3.2 logging step).
  void WriteLog(Transaction* txn);

  /// Propagate end timestamp / reset fields (Section 3.3).
  void Postprocess(Transaction* txn, bool committed);

  /// Common abort path; resolves dependents, postprocesses, terminates.
  Status DoAbort(Transaction* txn, AbortReason reason);

  /// Remove from the txn table, hand versions to GC, retire the object.
  void Terminate(Transaction* txn, bool committed);

  void ReleaseHeldLocks(Transaction* txn);
  void DrainWaitingList(Transaction* txn);

  MVEngineOptions options_;
  ObjectPool<Transaction> txn_pool_;
  TxnTable txn_table_;
  BucketLockTable bucket_locks_;
  std::unique_ptr<GarbageCollector> gc_;
  std::unique_ptr<DeadlockDetector> deadlock_;
};

}  // namespace mvstore
