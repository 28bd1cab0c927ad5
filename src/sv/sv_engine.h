// Single-version locking engine ("1V", paper Section 5).
//
// The paper's baseline: a well-tuned single-version engine with strict
// two-phase locking, against which both multiversion schemes (MV/O, MV/L;
// see cc/mv_engine.h) are compared in every experiment of Section 5. Its
// raw-overhead win under low contention (Figure 4) and its collapse under
// long readers (Figures 8-9) frame the paper's robustness argument.
//
// Rows are stored single-versioned in the same lock-free hash indexes as the
// MV engine (the Version header's Begin/End words are unused). Updates are
// applied in place under an exclusive key lock; aborts restore before-images
// from an undo set (strict two-phase locking).
//
// Isolation levels:
//  * Read Committed  - short shared locks (cursor stability): acquire,
//    read, release.
//  * Repeatable Read / Serializable - shared locks held to commit. A key
//    lock covers every record with that hash key, so equality scans get
//    phantom protection for free; RR and SR behave identically (the paper's
//    Table 3 shows near-identical 1V throughput for both).
//  * Snapshot - not supported single-versioned; mapped to Repeatable Read.
//
// Deadlocks are broken by lock-wait timeouts.
//
// Constraint: in-place updates must not change any index key (concurrent
// scans of other keys read key fields without a lock). Delete + insert to
// change a key.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/engine_core.h"
#include "mem/object_pool.h"
#include "sv/held_lock_set.h"
#include "sv/lock_table.h"

namespace mvstore {

/// 1V-specific settings; the log, memory and observability settings come
/// from EngineOptions.
struct SVEngineOptions : EngineOptions {
  /// Lock-wait timeout; expiry aborts the waiter (probable deadlock).
  uint64_t lock_timeout_us = 2000;
};

/// Single-version transaction handle.
class SVTransaction : public Txn {
 public:
  SVTransaction(TxnId id, IsolationLevel isolation)
      : id(id), isolation(isolation) {}

  /// Re-arm a recycled handle (mem/object_pool.h); the lock set and undo
  /// vectors keep their capacity. Only the owning thread ever touches an SV
  /// handle, so recycling needs no epoch deferral.
  void Reset(TxnId new_id, IsolationLevel new_isolation) {
    id = new_id;
    isolation = new_isolation;
    start_ticks = 0;
    locks.Clear();
    range_locks.clear();
    undo.clear();
  }

  TxnId id = 0;
  IsolationLevel isolation = IsolationLevel::kReadCommitted;

  /// One registered predicate-lock entry (RangeLockManager): a scanned
  /// range (shared) or a written key (point). `point` distinguishes; a
  /// point entry stores its key in `lo`.
  struct RangeLockHold {
    RangeLockManager* manager;
    uint64_t lo;
    uint64_t hi;
    bool point;
  };

  enum class UndoOp : uint8_t { kInsert, kUpdate, kDelete };

  struct UndoEntry {
    UndoOp op;
    Table* table;
    Version* row;
    std::vector<uint8_t> before;  // update only
  };

  HeldLockSet locks;
  std::vector<RangeLockHold> range_locks;
  std::vector<UndoEntry> undo;
};

class SVEngine final : public EngineCore {
 public:
  explicit SVEngine(SVEngineOptions options = {});

  TableId CreateTable(TableDef def) override;

  SVTransaction* Begin(IsolationLevel isolation, bool read_only = false);
  Txn* BeginTxn(IsolationLevel isolation, bool read_only) override {
    return Begin(isolation, read_only);
  }

  Status Scan(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
              const Predicate& residual,
              const ScanConsumer& consumer) override;
  /// Visit every row whose `index_id` key lies in [lo, hi], ascending.
  /// `index_id` must name an ordered index. Rows are read under their
  /// ordered-key hash locks (short under Read Committed, held to commit
  /// otherwise); serializable scans additionally register the range in the
  /// index's RangeLockManager, so conflicting inserts/deletes wait or time
  /// out (phantom protection by locking, the 1V way).
  Status ScanRange(Txn* txn, TableId table_id, IndexId index_id, uint64_t lo,
                   uint64_t hi, const Predicate& residual,
                   const ScanConsumer& consumer) override;
  /// Visit every row of the table. Each row is read under a briefly-held
  /// shared key lock (cursor stability), so payloads are never torn but the
  /// scan as a whole is not a consistent snapshot (single-version storage
  /// has no snapshots; see the MV engines for consistent reporting scans).
  Status ScanTable(Txn* txn, TableId table_id,
                   const ScanConsumer& consumer) override;

  Status Insert(Txn* txn, TableId table_id, const void* payload) override;
  Status Update(Txn* txn, TableId table_id, IndexId index_id, uint64_t key,
                const Mutator& mutator) override;
  Status Delete(Txn* txn, TableId table_id, IndexId index_id,
                uint64_t key) override;

  Status Commit(Txn* txn) override;
  void Abort(Txn* txn) override;
  bool HasWrites(const Txn* txn) const override {
    return !static_cast<const SVTransaction*>(txn)->undo.empty();
  }

  /// The lock guarding `key` in index `index_id` (introspection, tests).
  KeyLock* KeyLockFor(TableId table_id, IndexId index_id, uint64_t key) {
    return lock_tables_[lock_table_base_[table_id] + index_id]->LockFor(key);
  }

  const SVEngineOptions& options() const { return options_; }

 private:
  /// Acquire (or convert to) the requested mode on the key's lock,
  /// registering it in the transaction's lock set. Short-lock reads under
  /// Read Committed are handled by the caller.
  Status AcquireLock(SVTransaction* txn, SVLockTable& locks, uint64_t key,
                     bool exclusive);

  /// Find the row for `key` on any index kind. Caller must hold the key
  /// lock (any mode) and an epoch guard.
  Version* FindRow(Table& table, IndexId index_id, uint64_t key,
                   const std::function<bool(const void*)>& residual);

  /// Register point entries for `payload`'s key in every ordered index's
  /// RangeLockManager (insert/delete paths; blocks while a serializable
  /// scanner covers the key). Returns a lock-timeout abort status on
  /// expiry.
  Status AcquireOrderedPoints(SVTransaction* txn, TableId table_id,
                              Table& table, const void* payload);

  /// Read one traversal-discovered row under its `index_id` key lock:
  /// acquire shared (or reuse a held entry), re-validate that the row is
  /// still linked (the walk found it before the lock was granted, so an
  /// aborted insert or committed delete may have unlinked it while we
  /// waited), then run residual + consumer. `cursor_stability` releases
  /// the lock after the row regardless of isolation (full-table scans);
  /// otherwise only Read Committed releases early. Sets *keep_going from
  /// the consumer; returns a lock-timeout abort status on expiry.
  Status ReadRowForScan(SVTransaction* txn, Table& table, IndexId index_id,
                        SVLockTable& locks, Version* v, bool cursor_stability,
                        const std::function<bool(const void*)>& residual,
                        const std::function<bool(const void*)>& consumer,
                        bool* keep_going);

  void ReleaseAllLocks(SVTransaction* txn);
  void WriteLog(SVTransaction* txn);
  Status DoAbort(SVTransaction* txn, AbortReason reason);

  SVEngineOptions options_;
  ObjectPool<SVTransaction> txn_pool_;
  std::vector<std::unique_ptr<SVLockTable>> lock_tables_;  // [table][index]
  /// Parallel to lock_tables_: a RangeLockManager per ordered index
  /// (nullptr for hash slots).
  std::vector<std::unique_ptr<RangeLockManager>> range_locks_;
  std::vector<uint32_t> lock_table_base_;  // table id -> first lock table
};

}  // namespace mvstore
