// Transaction object for the multiversion engine.
//
// Lifecycle (paper Section 2.4, Figure 2):
//   Active -> Preparing -> Committed -> Terminated
//   Active/Preparing -> Aborted -> Terminated
//
// The object carries:
//  * commit-dependency state (Section 2.7): CommitDepCounter, AbortNow,
//    CommitDepSet;
//  * wait-for-dependency state for MV/L (Section 4.2): WaitForCounter,
//    NoMoreWaitFors, WaitingTxnList;
//  * the read/scan/write/bucket-lock sets (Sections 3, 4).
//
// Other transactions dereference this object during visibility checks, so it
// is released (to the engine's transaction pool, or the heap in debug mode)
// only through the epoch manager after removal from the transaction table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/spin_latch.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/hash_index.h"
#include "storage/ordered_index.h"
#include "storage/version.h"

namespace mvstore {

class Table;

enum class TxnState : uint32_t {
  kActive = 0,
  kPreparing,
  kCommitted,
  kAborted,
  kTerminated,
};

inline const char* TxnStateName(TxnState s) {
  switch (s) {
    case TxnState::kActive:
      return "Active";
    case TxnState::kPreparing:
      return "Preparing";
    case TxnState::kCommitted:
      return "Committed";
    case TxnState::kAborted:
      return "Aborted";
    case TxnState::kTerminated:
      return "Terminated";
  }
  return "Unknown";
}

/// One entry per version read (Section 3: "ReadSet contains pointers to
/// every version read"). `read_locked` records whether an MV/L read lock is
/// held and must be released at end of normal processing; the deadlock
/// detector also uses it to recover implicit wait-for edges (Section 4.4).
struct ReadSetEntry {
  Version* version = nullptr;
  bool read_locked = false;
};

/// One entry per index scan, sufficient to repeat the scan during optimistic
/// validation (Section 3.1 "Start scan"). The residual predicate may be
/// empty (pure equality scan).
struct ScanSetEntry {
  Table* table = nullptr;
  HashIndex* index = nullptr;
  uint64_t key = 0;
  std::function<bool(const void* payload)> residual;  // may be null
};

/// One entry per ordered-index range scan under serializable. The scanned
/// range joins the transaction's read footprint and is rescanned at
/// precommit: a version visible at the end timestamp but not at the begin
/// timestamp is a phantom (the paper's Section 3.2 check, extended from
/// hash buckets to key ranges).
struct RangeScanSetEntry {
  Table* table = nullptr;
  OrderedIndex* index = nullptr;
  uint64_t lo = 0;
  uint64_t hi = 0;
  std::function<bool(const void* payload)> residual;  // may be null
};

/// One entry per update/insert/delete (Section 3: "WriteSet contains
/// pointers to versions updated (old and new), versions deleted (old) and
/// versions inserted (new)").
struct WriteSetEntry {
  Table* table = nullptr;
  Version* old_version = nullptr;  // null for inserts
  Version* new_version = nullptr;  // null for deletes
};

/// One entry per bucket lock held by a serializable MV/L transaction
/// (Section 4: "BucketLockSet").
struct BucketLockEntry {
  HashIndex* index = nullptr;
  HashIndex::Bucket* bucket = nullptr;
};

class Transaction : public Txn {
 public:
  Transaction(TxnId id, IsolationLevel isolation, bool pessimistic,
              bool read_only)
      : id(id),
        isolation(isolation),
        pessimistic(pessimistic),
        read_only(read_only) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Re-arm a recycled transaction object (mem/object_pool.h) as if freshly
  /// constructed. Set vectors keep their capacity -- that is the point of
  /// pooling. Reuse happens only after epoch reclamation, so no concurrent
  /// reader can hold this pointer: relaxed stores suffice (publication to
  /// other threads goes through the txn table's latch).
  /// NO_THREAD_SAFETY_ANALYSIS: clears latch-guarded sets without their
  /// latches. Safe by protocol — Reset runs on pool recycle, before the
  /// transaction is published in the TxnTable, so no other thread can hold
  /// a pointer to it (the previous incarnation was epoch-retired first).
  void Reset(TxnId new_id, IsolationLevel new_isolation, bool new_pessimistic,
             bool new_read_only) NO_THREAD_SAFETY_ANALYSIS {
    id = new_id;
    isolation = new_isolation;
    pessimistic = new_pessimistic;
    read_only = new_read_only;
    start_ticks = 0;
    state.store(TxnState::kActive, std::memory_order_relaxed);
    begin_ts.store(0, std::memory_order_relaxed);
    end_ts.store(0, std::memory_order_relaxed);
    commit_dep_counter.store(0, std::memory_order_relaxed);
    abort_now.store(false, std::memory_order_relaxed);
    kill_reason.store(AbortReason::kNone, std::memory_order_relaxed);
    commit_dep_set.clear();
    deps_drained = false;
    wait_for_counter.store(0, std::memory_order_relaxed);
    no_more_wait_fors.store(false, std::memory_order_relaxed);
    waiting_txn_list.clear();
    waiting_drained = false;
    blocked.store(false, std::memory_order_relaxed);
    read_set.clear();
    scan_set.clear();
    range_scan_set.clear();
    write_set.clear();
    bucket_lock_set.clear();
    // wake_events deliberately survives: it is a monotonic event counter and
    // no waiter can exist across a recycle.
  }

  /// --- identity / phase ----------------------------------------------------

  TxnId id = 0;
  IsolationLevel isolation = IsolationLevel::kReadCommitted;
  /// True for MV/L transactions; false for MV/O. Mixed workloads are allowed
  /// (Section 4.5).
  bool pessimistic = false;
  /// Hint only: read-only transactions skip write-side bookkeeping.
  bool read_only = false;

  std::atomic<TxnState> state{TxnState::kActive};
  std::atomic<Timestamp> begin_ts{0};
  std::atomic<Timestamp> end_ts{0};

  /// --- commit dependencies (Section 2.7) -----------------------------------

  /// Unresolved commit dependencies this transaction still waits on.
  std::atomic<uint32_t> commit_dep_counter{0};
  /// Set by a transaction we depended on that aborted; forces our abort.
  std::atomic<bool> abort_now{false};
  /// Why abort_now was set (kCascading by default; kDeadlock when the
  /// deadlock detector chose us as victim).
  std::atomic<AbortReason> kill_reason{AbortReason::kNone};
  /// Guards commit_dep_set / deps_drained.
  SpinLatch dep_latch;
  /// IDs of transactions that depend on us.
  std::vector<TxnId> commit_dep_set GUARDED_BY(dep_latch);
  /// True once we have resolved (drained) our dependents.
  bool deps_drained GUARDED_BY(dep_latch) = false;

  /// --- wait-for dependencies, MV/L (Section 4.2) ---------------------------

  /// Incoming dependencies: how many events must happen before precommit.
  std::atomic<int32_t> wait_for_counter{0};
  /// Once set, no further incoming dependencies may be added (starvation
  /// guard); attempts to add one abort the would-be dependent.
  std::atomic<bool> no_more_wait_fors{false};
  /// Guards waiting_txn_list and waiting_drained.
  SpinLatch waiting_latch;
  /// Outgoing: IDs of transactions waiting on this transaction to complete
  /// (bucket-lock dependencies, Section 4.2.2).
  std::vector<TxnId> waiting_txn_list GUARDED_BY(waiting_latch);
  /// Set once the list has been drained at precommit/abort; late additions
  /// are rejected (the adder no longer needs the dependency: our scans are
  /// already ordered before its commit).
  bool waiting_drained GUARDED_BY(waiting_latch) = false;
  /// True while parked waiting for wait_for_counter to reach zero; the
  /// deadlock detector only considers blocked transactions (Section 4.4).
  std::atomic<bool> blocked{false};

  /// --- read/scan/write sets ------------------------------------------------

  /// Guards read_set against structural races: the deadlock detector walks
  /// other transactions' read sets concurrently with the owner appending
  /// (Section 4.4 step 3). Owner-side validation iterates it latch-free
  /// after the last append (MVEngine::Validate carries the protocol
  /// comment and a NO_THREAD_SAFETY_ANALYSIS opt-out).
  mutable SpinLatch read_set_latch;
  std::vector<ReadSetEntry> read_set GUARDED_BY(read_set_latch);
  std::vector<ScanSetEntry> scan_set;
  std::vector<RangeScanSetEntry> range_scan_set;
  std::vector<WriteSetEntry> write_set;
  std::vector<BucketLockEntry> bucket_lock_set;

  /// --- wake/wait support ----------------------------------------------------

  /// Bumped on every event that could unblock this transaction (commit dep
  /// resolved, AbortNow set, WaitForCounter decremented). Waiters use
  /// C++20 atomic wait on this word, so "transactions never block during
  /// normal processing but may have to wait before commit" costs no
  /// condition-variable setup on the fast path.
  std::atomic<uint64_t> wake_events{0};

  void NotifyEvent() {
    wake_events.fetch_add(1, std::memory_order_release);
    wake_events.notify_all();
  }

  /// Block until `done()` returns true. `done` must become true after a
  /// NotifyEvent() from another thread (or already be true).
  template <typename Pred>
  void WaitEvent(Pred&& done) {
    while (true) {
      uint64_t observed = wake_events.load(std::memory_order_acquire);
      if (done()) return;
      wake_events.wait(observed, std::memory_order_acquire);
    }
  }

  /// --- set helpers -----------------------------------------------------------

  void AddRead(Version* v, bool locked) {
    SpinLatchGuard guard(read_set_latch);
    read_set.push_back(ReadSetEntry{v, locked});
  }

  void AddScan(Table* table, HashIndex* index, uint64_t key,
               std::function<bool(const void*)> residual) {
    scan_set.push_back(ScanSetEntry{table, index, key, std::move(residual)});
  }

  void AddRangeScan(Table* table, OrderedIndex* index, uint64_t lo,
                    uint64_t hi, std::function<bool(const void*)> residual) {
    range_scan_set.push_back(
        RangeScanSetEntry{table, index, lo, hi, std::move(residual)});
  }

  void AddWrite(Table* table, Version* old_version, Version* new_version) {
    write_set.push_back(WriteSetEntry{table, old_version, new_version});
  }
};

/// End timestamp of a transaction observed in Preparing (or later) state.
///
/// Precommit publishes Preparing *before* drawing the end timestamp (see
/// MVEngine::Commit): that ordering is what lets a reader that still
/// observes Active conclude the writer's end timestamp — whenever it is
/// drawn — will exceed the reader's read time. The cost is this window:
/// a reader can catch state == Preparing with end_ts not yet stored (it is
/// reset to 0 between incarnations). Spin it out; the writer is between
/// two adjacent stores, so the wait is a few instructions unless it gets
/// descheduled.
inline Timestamp AwaitEndTimestamp(const Transaction* txn) {
  Timestamp ts = txn->end_ts.load(std::memory_order_acquire);
  uint32_t spins = 0;
  while (ts == 0) {
    // Yield once the writer looks descheduled: with more threads than
    // cores, spinning here is what keeps it descheduled.
    if (++spins < 64) {
      CpuRelax();
    } else {
      spins = 0;
      std::this_thread::yield();
    }
    ts = txn->end_ts.load(std::memory_order_acquire);
  }
  return ts;
}

}  // namespace mvstore
