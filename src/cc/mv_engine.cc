#include "cc/mv_engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mvstore {

namespace {

/// Abort reason to use when AbortNow was observed.
AbortReason KillReason(Transaction* txn) {
  AbortReason hint = txn->kill_reason.load(std::memory_order_relaxed);
  return hint == AbortReason::kNone ? AbortReason::kCascading : hint;
}

Stat AbortStat(AbortReason reason) {
  switch (reason) {
    case AbortReason::kWriteWriteConflict:
      return Stat::kAbortWriteConflict;
    case AbortReason::kReadValidation:
      return Stat::kAbortValidation;
    case AbortReason::kPhantom:
      return Stat::kAbortPhantom;
    case AbortReason::kCascading:
      return Stat::kAbortCascading;
    case AbortReason::kDeadlock:
      return Stat::kAbortDeadlock;
    case AbortReason::kReadLockFailed:
    case AbortReason::kWaitForRefused:
      return Stat::kAbortLockFailed;
    default:
      return Stat::kTxnAborted;
  }
}

}  // namespace

MVEngine::MVEngine(MVEngineOptions options, Scheme scheme)
    : EngineCore(scheme, options),
      options_(options),
      txn_pool_(options_.use_slab_allocator, &stats_) {
  gc_ = std::make_unique<GarbageCollector>(txn_table_, epoch_, stats_,
                                           options_.gc_interval_us);
  gc_->SetHistograms(&hists_);
  gc_->SetNowSource(
      [](void* arg) {
        return static_cast<TimestampGenerator*>(arg)->Current() + 1;
      },
      &clock_);
  if (options_.gc_interval_us > 0) gc_->Start();
  deadlock_ = std::make_unique<DeadlockDetector>(
      txn_table_, epoch_, stats_,
      options_.deadlock_interval_us > 0 ? options_.deadlock_interval_us : 1000);
  if (options_.deadlock_interval_us > 0) deadlock_->Start();
}

MVEngine::~MVEngine() {
  deadlock_->Stop();
  gc_->Stop();
  // Abandoned transactions (tests that Begin and never finish): abort-free
  // teardown -- just release the objects.
  for (Transaction* t : txn_table_.Snapshot()) {
    txn_table_.Remove(t->id);
    txn_pool_.Release(t);
  }
  // Drain the GC queue completely: with no live transactions, the watermark
  // passes everything. Retired transactions go back to txn_pool_, so the
  // epoch drains here, before the pool dies; ~EngineCore frees the rows.
  gc_->RunOnce();
  epoch_.DrainAll();
}

Transaction* MVEngine::Begin(IsolationLevel isolation, bool pessimistic,
                             bool read_only) {
  // Section 3.4, "Read-only transactions": a transaction that performs no
  // writes and reads a begin-time snapshot is trivially serializable (its
  // serialization point is its begin timestamp), so declared-read-only
  // transactions requesting Repeatable Read or Serializable run at Snapshot
  // -- no read locks, no read-set tracking, no validation. This is what
  // isolates the paper's long readers from updaters (Figures 8 and 9).
  if (read_only && (isolation == IsolationLevel::kSerializable ||
                    isolation == IsolationLevel::kRepeatableRead)) {
    isolation = IsolationLevel::kSnapshot;
  }
  Transaction* txn =
      txn_pool_.Acquire(txn_ids_.Next(), isolation, pessimistic, read_only);
  // Sampled commit-pipeline tracing: the decision rides start_ticks so a
  // sampled transaction gets a coherent whole-pipeline trace.
  txn->start_ticks = SampleStartTicks();
  // Publish with begin_ts == 0 first: the GC watermark treats an unknown
  // begin timestamp as "could be anything", so no version this transaction
  // might see can be reclaimed in the window before the timestamp is set.
  txn_table_.Insert(txn);
  // A begin timestamp is a read of the clock, not a draw from it (Section 6:
  // drawing is the one critical section every transaction shares, so only
  // commits pay for it). Current() is at or above every finished commit and
  // strictly below every end timestamp drawn after it, which is exactly
  // what a snapshot needs.
  txn->begin_ts.store(clock_.Current(), std::memory_order_release);
  return txn;
}

Timestamp MVEngine::ReadTime(Transaction* txn) const {
  // Section 3.4 (optimistic) / Section 4.3.1 (pessimistic).
  if (txn->pessimistic) {
    return txn->isolation == IsolationLevel::kSnapshot
               ? txn->begin_ts.load(std::memory_order_acquire)
               : clock_.Current();
  }
  return txn->isolation == IsolationLevel::kReadCommitted
             ? clock_.Current()
             : txn->begin_ts.load(std::memory_order_acquire);
}

VisibilityContext MVEngine::VisCtx(Transaction* txn, VisibilityMode mode) {
  VisibilityContext ctx;
  ctx.self = txn;
  ctx.txn_table = &txn_table_;
  ctx.stats = &stats_;
  ctx.mode = mode;
  return ctx;
}

/// ---------------------------------------------------------------------------
/// Record locks (Section 4.2.1)
/// ---------------------------------------------------------------------------

Status MVEngine::AcquireReadLock(Transaction* txn, Version* v, bool* locked) {
  *locked = false;
  while (true) {
    uint64_t end_word = v->end.load(std::memory_order_acquire);

    if (!lockword::IsLockWord(end_word)) {
      if (lockword::TimestampOf(end_word) != kInfinity) {
        // Only MV/L at Repeatable Read / Serializable locks, and its read
        // time is the current clock, so a visible version with a finite End
        // was superseded by a writer that drew its end timestamp after our
        // read time. Reading it unlocked would let that writer commit under
        // us (a non-repeatable read or write skew): refuse instead.
        return Status::Aborted(AbortReason::kReadLockFailed);
      }
      uint64_t desired = lockword::MakeLockWord(1, lockword::kNoWriter);
      if (v->end.compare_exchange_weak(end_word, desired,
                                       std::memory_order_acq_rel)) {
        *locked = true;
        return Status::OK();
      }
      continue;
    }

    if (lockword::NoMoreReadLocks(end_word) ||
        lockword::ReadCountOf(end_word) >= lockword::kMaxReadLocks) {
      return Status::Aborted(AbortReason::kReadLockFailed);
    }

    uint32_t count = lockword::ReadCountOf(end_word);
    TxnId writer = lockword::WriterOf(end_word);

    if (writer != lockword::kNoWriter && writer != txn->id && count == 0) {
      // First read lock on a write-locked version: the writer must wait for
      // us (Section 4.2.1), unless it already aborted.
      Transaction* tu = txn_table_.Find(writer);
      if (tu == nullptr || tu->id != writer) {
        CpuRelax();
        continue;  // writer terminated; End word is being finalized
      }
      if (tu->state.load(std::memory_order_acquire) == TxnState::kAborted) {
        // Aborted writer: lockable without a dependency.
        if (v->end.compare_exchange_weak(
                end_word, lockword::WithReadCount(end_word, 1),
                std::memory_order_acq_rel)) {
          *locked = true;
          return Status::OK();
        }
        continue;
      }
      if (tu->no_more_wait_fors.load(std::memory_order_seq_cst)) {
        return Status::Aborted(AbortReason::kReadLockFailed);
      }
      tu->wait_for_counter.fetch_add(1, std::memory_order_seq_cst);
      if (tu->no_more_wait_fors.load(std::memory_order_seq_cst)) {
        // The writer reached its precommit barrier concurrently; back out.
        tu->wait_for_counter.fetch_sub(1, std::memory_order_seq_cst);
        tu->NotifyEvent();
        return Status::Aborted(AbortReason::kReadLockFailed);
      }
      if (v->end.compare_exchange_strong(end_word,
                                         lockword::WithReadCount(end_word, 1),
                                         std::memory_order_acq_rel)) {
        stats_.Add(Stat::kWaitForDepsTaken);
        *locked = true;
        return Status::OK();
      }
      // Lost the race; undo the dependency and retry from scratch.
      tu->wait_for_counter.fetch_sub(1, std::memory_order_seq_cst);
      tu->NotifyEvent();
      continue;
    }

    if (v->end.compare_exchange_weak(
            end_word, lockword::WithReadCount(end_word, count + 1),
            std::memory_order_acq_rel)) {
      *locked = true;
      return Status::OK();
    }
  }
}

void MVEngine::ReleaseReadLock(Transaction* /*txn*/, Version* v) {
  while (true) {
    uint64_t end_word = v->end.load(std::memory_order_acquire);
    if (!lockword::IsLockWord(end_word)) return;  // finalized under us (abort)
    uint32_t count = lockword::ReadCountOf(end_word);
    if (count == 0) return;  // defensive: already released
    TxnId writer = lockword::WriterOf(end_word);

    if (count == 1 && writer != lockword::kNoWriter) {
      // Last read lock on a write-locked version: set NoMoreReadLocks and
      // release the writer's wait-for dependency (Section 4.2.1). Both
      // fields live in the same word, so one CAS is atomic for both.
      uint64_t desired = lockword::MakeLockWord(0, writer, true);
      if (v->end.compare_exchange_weak(end_word, desired,
                                       std::memory_order_acq_rel)) {
        Transaction* tu = txn_table_.Find(writer);
        if (tu != nullptr && tu->id == writer) {
          tu->wait_for_counter.fetch_sub(1, std::memory_order_seq_cst);
          tu->NotifyEvent();
        }
        return;
      }
      continue;
    }

    uint64_t desired;
    if (count == 1 && writer == lockword::kNoWriter &&
        !lockword::NoMoreReadLocks(end_word)) {
      // No writer, no more readers: normalize back to "end = infinity".
      desired = lockword::MakeTimestamp(kInfinity);
    } else {
      desired = lockword::WithReadCount(end_word, count - 1);
    }
    if (v->end.compare_exchange_weak(end_word, desired,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

void MVEngine::ReleaseOwnReadLock(Transaction* txn, Version* v) {
  SpinLatchGuard latch(txn->read_set_latch);
  for (ReadSetEntry& e : txn->read_set) {
    if (e.version == v && e.read_locked) {
      ReleaseReadLock(txn, v);
      e.read_locked = false;
      return;
    }
  }
}

/// ---------------------------------------------------------------------------
/// Write locks (Sections 2.6, 4.3.1)
/// ---------------------------------------------------------------------------

Status MVEngine::InstallWriteLock(Transaction* txn, Version* v) {
  while (true) {
    uint64_t end_word = v->end.load(std::memory_order_acquire);

    if (!lockword::IsLockWord(end_word)) {
      if (lockword::TimestampOf(end_word) != kInfinity) {
        // A committed newer version exists.
        return Status::Aborted(AbortReason::kWriteWriteConflict);
      }
      uint64_t desired = lockword::MakeLockWord(0, txn->id);
      if (v->end.compare_exchange_weak(end_word, desired,
                                       std::memory_order_acq_rel)) {
        return Status::OK();
      }
      continue;  // "some other transaction has sneaked in" -- re-examine
    }

    TxnId writer = lockword::WriterOf(end_word);

    if (writer == txn->id) {
      // We already hold the write lock (double update of one version).
      return Status::Aborted(AbortReason::kWriteWriteConflict);
    }

    if (writer == lockword::kNoWriter) {
      // Read-locked only: eager update (Section 4.2). Take the write lock
      // and a wait-for dependency on the readers.
      uint64_t desired = lockword::WithWriter(end_word, txn->id);
      if (v->end.compare_exchange_weak(end_word, desired,
                                       std::memory_order_acq_rel)) {
        if (lockword::ReadCountOf(end_word) > 0 && UsesWaitFors(txn)) {
          txn->wait_for_counter.fetch_add(1, std::memory_order_seq_cst);
          stats_.Add(Stat::kWaitForDepsTaken);
        }
        return Status::OK();
      }
      continue;
    }

    // Write-locked by someone else: updatable only if they aborted.
    Transaction* te = txn_table_.Find(writer);
    if (te == nullptr || te->id != writer) {
      CpuRelax();
      continue;  // terminated; the word is being finalized -- reread
    }
    TxnState s = te->state.load(std::memory_order_acquire);
    if (s == TxnState::kTerminated) {
      CpuRelax();
      continue;
    }
    if (s == TxnState::kAborted) {
      // Take over the aborted writer's lock, preserving reader state.
      uint64_t desired = lockword::WithWriter(end_word, txn->id);
      if (v->end.compare_exchange_weak(end_word, desired,
                                       std::memory_order_acq_rel)) {
        if (lockword::ReadCountOf(end_word) > 0 && UsesWaitFors(txn)) {
          txn->wait_for_counter.fetch_add(1, std::memory_order_seq_cst);
          stats_.Add(Stat::kWaitForDepsTaken);
        }
        return Status::OK();
      }
      continue;
    }
    // Active, Preparing or Committed: first-writer-wins.
    return Status::Aborted(AbortReason::kWriteWriteConflict);
  }
}

/// ---------------------------------------------------------------------------
/// Bucket-lock dependencies (Section 4.2.2)
/// ---------------------------------------------------------------------------

Status MVEngine::ImposePhantomDependency(Transaction* txn, Version* v,
                                         Timestamp read_time) {
  while (true) {
    uint64_t begin_word = v->begin.load(std::memory_order_acquire);
    if (!beginword::IsTxnId(begin_word)) {
      Timestamp ts = beginword::TimestampOf(begin_word);
      if (ts != kInfinity && ts > read_time) {
        // Committed during our scan setup: a phantom we can no longer
        // prevent. Conservative abort (rare race window).
        return Status::Aborted(AbortReason::kPhantom);
      }
      return Status::OK();  // garbage, or invisible for End-side reasons
    }
    TxnId tb_id = beginword::TxnIdOf(begin_word);
    if (tb_id == txn->id) return Status::OK();

    Transaction* tb = txn_table_.Find(tb_id);
    if (tb == nullptr || tb->id != tb_id) {
      CpuRelax();
      continue;  // finalized; reread
    }
    TxnState s = tb->state.load(std::memory_order_acquire);
    switch (s) {
      case TxnState::kAborted:
        return Status::OK();
      case TxnState::kTerminated:
        CpuRelax();
        continue;
      case TxnState::kCommitted: {
        Timestamp ts = AwaitEndTimestamp(tb);
        return ts > read_time ? Status::Aborted(AbortReason::kPhantom)
                              : Status::OK();
      }
      case TxnState::kPreparing: {
        Timestamp ts = AwaitEndTimestamp(tb);
        // ts < read_time would have made the version speculatively visible,
        // so here ts > read_time: the inserter is already past its barrier
        // and will commit into our scan range.
        return ts > read_time ? Status::Aborted(AbortReason::kPhantom)
                              : Status::OK();
      }
      case TxnState::kActive: {
        // "TS registers a wait-for dependency on TU's behalf" (4.2.2).
        if (tb->no_more_wait_fors.load(std::memory_order_seq_cst)) {
          return Status::Aborted(AbortReason::kWaitForRefused);
        }
        tb->wait_for_counter.fetch_add(1, std::memory_order_seq_cst);
        if (tb->no_more_wait_fors.load(std::memory_order_seq_cst)) {
          tb->wait_for_counter.fetch_sub(1, std::memory_order_seq_cst);
          tb->NotifyEvent();
          return Status::Aborted(AbortReason::kWaitForRefused);
        }
        {
          SpinLatchGuard guard(txn->waiting_latch);
          txn->waiting_txn_list.push_back(tb_id);
        }
        stats_.Add(Stat::kWaitForDepsTaken);
        return Status::OK();
      }
    }
  }
}

Status MVEngine::TakeBucketLockDependencies(Transaction* txn,
                                            HashIndex::Bucket* bucket) {
  if (HashIndex::BucketLockCount(*bucket) == 0) return Status::OK();
  for (TxnId holder_id : bucket_locks_.Holders(bucket)) {
    if (holder_id == txn->id) continue;
    EpochGuard guard(epoch_);
    Transaction* holder = txn_table_.Find(holder_id);
    if (holder == nullptr || holder->id != holder_id) continue;  // completed
    bool added = false;
    {
      SpinLatchGuard latch(holder->waiting_latch);
      if (!holder->waiting_drained) {
        holder->waiting_txn_list.push_back(txn->id);
        added = true;
      }
    }
    if (added) {
      txn->wait_for_counter.fetch_add(1, std::memory_order_seq_cst);
      stats_.Add(Stat::kWaitForDepsTaken);
    }
  }
  return Status::OK();
}

/// ---------------------------------------------------------------------------
/// Scans and point operations
/// ---------------------------------------------------------------------------

Version* MVEngine::FindVisible(Transaction* txn, Table& table, IndexId index_id,
                               uint64_t key, Timestamp read_time,
                               const Predicate& residual, Status* status,
                               bool for_update) {
  *status = Status::OK();
  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kNormalProcessing);
  ctx.for_update = for_update;
  Version* found = nullptr;
  bool serializable_pessimistic =
      txn->pessimistic && txn->isolation == IsolationLevel::kSerializable;
  auto probe = [&](Version* v) {
    if (table.IndexKeyOf(index_id, v) != key) return true;
    if (residual && !residual(v->Payload())) return true;
    VisibilityResult vis = CheckVisibility(ctx, v, read_time);
    if (vis.must_abort) {
      *status = Status::Aborted(vis.abort_reason);
      return false;
    }
    if (!vis.visible) {
      if (serializable_pessimistic) {
        Status s = ImposePhantomDependency(txn, v, read_time);
        if (!s.ok()) {
          *status = s;
          return false;
        }
      }
      return true;
    }
    found = v;
    return false;
  };
  table.ScanIndexKey(index_id, key, probe);
  return found;
}

Status MVEngine::Scan(Txn* handle, TableId table_id, IndexId index_id,
                      uint64_t key, const Predicate& residual,
                      const ScanConsumer& consumer) {
  auto* txn = static_cast<Transaction*>(handle);
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  Table& table = catalog_.table(table_id);
  if (table.ordered_index(index_id) != nullptr) {
    // Equality probe on the ordered access path: a degenerate range. Phantom
    // protection comes from the range machinery (precommit rescan), not
    // bucket locks — ordered nodes have no bucket lock word.
    return ScanRange(txn, table_id, index_id, key, key, residual, consumer);
  }
  HashIndex& index = table.index(index_id);
  EpochGuard guard(epoch_);

  Timestamp read_time = ReadTime(txn);
  const bool serializable = txn->isolation == IsolationLevel::kSerializable;
  const bool repeatable =
      serializable || txn->isolation == IsolationLevel::kRepeatableRead;

  // Phantom protection setup (Section 3.1 "Start scan" / 4.3.1).
  if (serializable && !txn->pessimistic) {
    txn->AddScan(&table, &index, key, residual);
  }
  HashIndex::Bucket* bucket = &index.BucketFor(key);
  if (serializable && txn->pessimistic) {
    bucket_locks_.Lock(bucket, txn->id);
    txn->bucket_lock_set.push_back(BucketLockEntry{&index, bucket});
  }

  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kNormalProcessing);
  Status result = Status::OK();
  index.ScanBucket(key, [&](Version* v) {
    if (index.KeyOf(v) != key) return true;           // hash collision
    if (residual && !residual(v->Payload())) return true;  // Check predicate
    VisibilityResult vis = CheckVisibility(ctx, v, read_time);  // visibility
    if (vis.must_abort) {
      result = Status::Aborted(vis.abort_reason);
      return false;
    }
    if (!vis.visible) {
      if (serializable && txn->pessimistic) {
        Status s = ImposePhantomDependency(txn, v, read_time);
        if (!s.ok()) {
          result = s;
          return false;
        }
      }
      return true;
    }
    // Read version: track / lock according to scheme + isolation.
    if (txn->pessimistic) {
      if (repeatable) {
        bool locked = false;
        Status s = AcquireReadLock(txn, v, &locked);
        if (!s.ok()) {
          result = s;
          return false;
        }
        if (locked) txn->AddRead(v, true);
      }
    } else if (repeatable) {
      txn->AddRead(v, false);
    }
    return consumer(v->Payload());
  });

  if (!result.ok() && result.IsAborted()) {
    return DoAbort(txn, result.abort_reason());
  }
  return result;
}

Status MVEngine::ScanRange(Txn* handle, TableId table_id, IndexId index_id,
                           uint64_t lo, uint64_t hi, const Predicate& residual,
                           const ScanConsumer& consumer) {
  auto* txn = static_cast<Transaction*>(handle);
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  Table& table = catalog_.table(table_id);
  OrderedIndex* index = table.ordered_index(index_id);
  if (index == nullptr) return Status::InvalidArgument();
  EpochGuard guard(epoch_);

  Timestamp read_time = ReadTime(txn);
  const bool serializable = txn->isolation == IsolationLevel::kSerializable;
  const bool repeatable =
      serializable || txn->isolation == IsolationLevel::kRepeatableRead;

  // Phantom protection: the range joins the transaction's read footprint
  // and is revalidated by rescan at precommit — for MV/L too, since bucket
  // locks cannot cover a key interval. (Declared-read-only transactions ran
  // through the Snapshot downgrade at Begin and never register ranges.)
  if (serializable) {
    txn->AddRangeScan(&table, index, lo, hi, residual);
  }

  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kNormalProcessing);
  Status result = Status::OK();
  index->ScanRange(lo, hi, [&](Version* v) {
    if (residual && !residual(v->Payload())) return true;
    VisibilityResult vis = CheckVisibility(ctx, v, read_time);
    if (vis.must_abort) {
      result = Status::Aborted(vis.abort_reason);
      return false;
    }
    if (!vis.visible) return true;
    // Read stability, per scheme + isolation (same policy as Scan).
    if (txn->pessimistic) {
      if (repeatable) {
        bool locked = false;
        Status s = AcquireReadLock(txn, v, &locked);
        if (!s.ok()) {
          result = s;
          return false;
        }
        if (locked) txn->AddRead(v, true);
      }
    } else if (repeatable) {
      txn->AddRead(v, false);
    }
    return consumer(v->Payload());
  });

  if (!result.ok() && result.IsAborted()) {
    return DoAbort(txn, result.abort_reason());
  }
  return result;
}

Status MVEngine::ScanTable(Txn* handle, TableId table_id,
                           const ScanConsumer& consumer) {
  auto* txn = static_cast<Transaction*>(handle);
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  Table& table = catalog_.table(table_id);
  HashIndex& index = table.index(0);
  EpochGuard guard(epoch_);
  Timestamp read_time = ReadTime(txn);
  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kNormalProcessing);
  Status result = Status::OK();
  index.ScanAll([&](Version* v) {
    VisibilityResult vis = CheckVisibility(ctx, v, read_time);
    if (vis.must_abort) {
      result = Status::Aborted(vis.abort_reason);
      return false;
    }
    if (!vis.visible) return true;
    return consumer(v->Payload());
  });
  if (result.IsAborted()) return DoAbort(txn, result.abort_reason());
  return result;
}

namespace {

/// True if `v` could (still) materialize key `key`: an uncommitted latest
/// version created by a live transaction other than `self`.
bool IsInFlightInsert(TxnTable& txn_table, Version* v, TxnId self) {
  uint64_t begin_word = v->begin.load(std::memory_order_acquire);
  if (!beginword::IsTxnId(begin_word)) return false;
  TxnId creator = beginword::TxnIdOf(begin_word);
  if (creator == self) return false;
  Transaction* tb = txn_table.Find(creator);
  if (tb == nullptr || tb->id != creator) return false;
  TxnState s = tb->state.load(std::memory_order_acquire);
  if (s != TxnState::kActive && s != TxnState::kPreparing) return false;
  // Must still be a latest-form version (not already superseded).
  uint64_t end_word = v->end.load(std::memory_order_acquire);
  if (!lockword::IsLockWord(end_word)) {
    return lockword::TimestampOf(end_word) == kInfinity;
  }
  return lockword::WriterOf(end_word) == lockword::kNoWriter;
}

}  // namespace

Status MVEngine::Insert(Txn* handle, TableId table_id, const void* payload) {
  auto* txn = static_cast<Transaction*>(handle);
  if (txn->read_only) return Status::InvalidArgument();
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  Table& table = catalog_.table(table_id);
  EpochGuard guard(epoch_);
  HashIndex& primary = table.index(0);
  const uint64_t key = primary.KeyOfPayload(payload);
  const bool unique = table.index_def(0).unique;
  Timestamp read_time = ReadTime(txn);
  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kNormalProcessing);

  auto key_conflict = [&](Version* exclude) {
    bool conflict = false;
    primary.ScanBucket(key, [&](Version* v) {
      if (v == exclude || primary.KeyOf(v) != key) return true;
      VisibilityResult vis = CheckVisibility(ctx, v, read_time);
      if (vis.visible || IsInFlightInsert(txn_table_, v, txn->id)) {
        conflict = true;
        return false;
      }
      return true;
    });
    return conflict;
  };

  if (unique && key_conflict(nullptr)) return Status::AlreadyExists();

  Version* v = table.AllocateVersion(payload);
  v->begin.store(beginword::MakeTxnId(txn->id), std::memory_order_release);
  // Connect into all indexes; honor bucket locks (Section 4.2.2 / 4.5).
  // Ordered indexes have no bucket locks: serializable scanners of a key
  // range catch this insert via their precommit rescan instead.
  for (uint32_t i = 0; i < table.num_indexes(); ++i) {
    if (OrderedIndex* ordered = table.ordered_index(i)) {
      ordered->Insert(v);
      continue;
    }
    HashIndex& index = table.index(i);
    HashIndex::Bucket* bucket = &index.BucketFor(index.KeyOfPayload(payload));
    index.Insert(v);
    if (UsesWaitFors(txn)) {
      Status s = TakeBucketLockDependencies(txn, bucket);
      if (!s.ok()) return DoAbort(txn, s.abort_reason());
    }
  }
  txn->AddWrite(&table, nullptr, v);
  stats_.Add(Stat::kVersionsCreated);

  // Close the check-then-insert race: if another in-flight insert of the
  // same key is now present, retract ours. (Both racers may retract; the
  // application retries.)
  if (unique && key_conflict(v)) {
    txn->write_set.pop_back();
    table.UnlinkFromAllIndexes(v);
    epoch_.Retire(v, &Table::VersionDeleter, &table);
    return Status::AlreadyExists();
  }
  return Status::OK();
}

Status MVEngine::Update(Txn* handle, TableId table_id, IndexId index_id,
                        uint64_t key, const Mutator& mutator) {
  auto* txn = static_cast<Transaction*>(handle);
  if (txn->read_only) return Status::InvalidArgument();
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  Table& table = catalog_.table(table_id);
  EpochGuard guard(epoch_);

  Status status;
  Version* v = FindVisible(txn, table, index_id, key, ReadTime(txn), nullptr,
                           &status, /*for_update=*/true);
  if (!status.ok()) return DoAbort(txn, status.abort_reason());
  if (v == nullptr) return Status::NotFound();

  if (txn->pessimistic) ReleaseOwnReadLock(txn, v);
  Status lock_status = InstallWriteLock(txn, v);
  if (!lock_status.ok()) {
    return DoAbort(txn, lock_status.abort_reason());
  }

  Version* vn = table.AllocateVersion(v->Payload());
  mutator(vn->Payload());
  vn->begin.store(beginword::MakeTxnId(txn->id), std::memory_order_release);
  for (uint32_t i = 0; i < table.num_indexes(); ++i) {
    if (OrderedIndex* ordered = table.ordered_index(i)) {
      ordered->Insert(vn);
      continue;
    }
    HashIndex& target = table.index(i);
    HashIndex::Bucket* bucket = &target.BucketFor(target.KeyOfPayload(vn->Payload()));
    target.Insert(vn);
    if (UsesWaitFors(txn)) {
      Status s = TakeBucketLockDependencies(txn, bucket);
      if (!s.ok()) return DoAbort(txn, s.abort_reason());
    }
  }
  txn->AddWrite(&table, v, vn);
  stats_.Add(Stat::kVersionsCreated);
  return Status::OK();
}

Status MVEngine::Delete(Txn* handle, TableId table_id, IndexId index_id,
                        uint64_t key) {
  auto* txn = static_cast<Transaction*>(handle);
  if (txn->read_only) return Status::InvalidArgument();
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  Table& table = catalog_.table(table_id);
  EpochGuard guard(epoch_);

  Status status;
  Version* v = FindVisible(txn, table, index_id, key, ReadTime(txn), nullptr,
                           &status, /*for_update=*/true);
  if (!status.ok()) return DoAbort(txn, status.abort_reason());
  if (v == nullptr) return Status::NotFound();

  if (txn->pessimistic) ReleaseOwnReadLock(txn, v);
  Status lock_status = InstallWriteLock(txn, v);
  if (!lock_status.ok()) {
    return DoAbort(txn, lock_status.abort_reason());
  }
  txn->AddWrite(&table, v, nullptr);
  return Status::OK();
}

/// ---------------------------------------------------------------------------
/// Commit protocol
/// ---------------------------------------------------------------------------

void MVEngine::ReleaseHeldLocks(Transaction* txn) {
  EpochGuard guard(epoch_);  // lock release dereferences writer transactions
  // Read locks.
  {
    SpinLatchGuard latch(txn->read_set_latch);
    for (ReadSetEntry& e : txn->read_set) {
      if (e.read_locked) {
        ReleaseReadLock(txn, e.version);
        e.read_locked = false;
      }
    }
  }
  // Bucket locks.
  for (BucketLockEntry& e : txn->bucket_lock_set) {
    bucket_locks_.Unlock(e.bucket, txn->id);
  }
  txn->bucket_lock_set.clear();
}

void MVEngine::DrainWaitingList(Transaction* txn) {
  std::vector<TxnId> waiters;
  {
    SpinLatchGuard latch(txn->waiting_latch);
    txn->waiting_drained = true;
    waiters.swap(txn->waiting_txn_list);
  }
  EpochGuard guard(epoch_);
  for (TxnId id : waiters) {
    Transaction* t = txn_table_.Find(id);
    if (t != nullptr && t->id == id) {
      t->wait_for_counter.fetch_sub(1, std::memory_order_seq_cst);
      t->NotifyEvent();
    }
  }
}

bool MVEngine::FinishNormalProcessing(Transaction* txn) {
  // End of normal processing (Section 4.3.1): wait out incoming wait-for
  // dependencies, *holding* read and bucket locks across the wait. Locks are
  // released immediately after precommit: a writer of a version we read can
  // then only acquire its end timestamp after ours, which is exactly read
  // stability; symmetric waiters form a genuine deadlock that the detector
  // resolves through the implicit read-lock edges (Section 4.4 step 3).
  if (!UsesWaitFors(txn)) {
    return !txn->abort_now.load(std::memory_order_acquire);
  }
  txn->no_more_wait_fors.store(true, std::memory_order_seq_cst);
  if (txn->wait_for_counter.load(std::memory_order_seq_cst) > 0) {
    stats_.Add(Stat::kPrecommitWaits);
    txn->blocked.store(true, std::memory_order_release);
    txn->WaitEvent([&] {
      return txn->wait_for_counter.load(std::memory_order_acquire) <= 0 ||
             txn->abort_now.load(std::memory_order_acquire);
    });
    txn->blocked.store(false, std::memory_order_release);
  }
  return !txn->abort_now.load(std::memory_order_acquire);
}

Status MVEngine::Validate(Transaction* txn) {
  EpochGuard guard(epoch_);
  const Timestamp end_time = txn->end_ts.load(std::memory_order_acquire);
  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kValidation);

  // Read stability: every version read must still be visible as of the end
  // of the transaction (Section 3.2). A version we later updated or deleted
  // *ourselves* trivially passes: our own write lock guaranteed nobody else
  // replaced it.
  for (const ReadSetEntry& e : txn->read_set) {
    uint64_t end_word = e.version->end.load(std::memory_order_acquire);
    if (lockword::IsLockWord(end_word) &&
        lockword::WriterOf(end_word) == txn->id) {
      continue;
    }
    VisibilityResult vis = CheckVisibility(ctx, e.version, end_time);
    if (vis.must_abort || !vis.visible) {
      return Status::Aborted(AbortReason::kReadValidation);
    }
  }

  if (txn->isolation != IsolationLevel::kSerializable) return Status::OK();

  // Phantom detection: repeat every scan; a version visible at the end of
  // the transaction that was not visible at its start is a phantom
  // (Figure 3: V4).
  const Timestamp begin_time = txn->begin_ts.load(std::memory_order_acquire);
  for (const ScanSetEntry& scan : txn->scan_set) {
    bool phantom = false;
    scan.index->ScanBucket(scan.key, [&](Version* v) {
      if (scan.index->KeyOf(v) != scan.key) return true;
      if (scan.residual && !scan.residual(v->Payload())) return true;
      VisibilityResult at_end = CheckVisibility(ctx, v, end_time);
      if (at_end.must_abort) {
        phantom = true;
        return false;
      }
      if (!at_end.visible) return true;
      VisibilityResult at_begin = CheckVisibility(ctx, v, begin_time);
      if (at_begin.must_abort || !at_begin.visible) {
        phantom = true;  // came into existence during our lifetime
        return false;
      }
      return true;
    });
    if (phantom) return Status::Aborted(AbortReason::kPhantom);
  }
  return ValidateRangeScans(txn);
}

Status MVEngine::ValidateRangeScans(Transaction* txn) {
  if (txn->range_scan_set.empty()) return Status::OK();
  EpochGuard guard(epoch_);
  const Timestamp end_time = txn->end_ts.load(std::memory_order_acquire);
  const Timestamp begin_time = txn->begin_ts.load(std::memory_order_acquire);
  VisibilityContext ctx = VisCtx(txn, VisibilityMode::kValidation);
  // Same phantom rule as the bucket rescan above, applied to [lo, hi]: a
  // version visible at the end of the transaction that was not visible at
  // its start came into existence during our lifetime.
  for (const RangeScanSetEntry& scan : txn->range_scan_set) {
    bool phantom = false;
    scan.index->ScanRange(scan.lo, scan.hi, [&](Version* v) {
      if (scan.residual && !scan.residual(v->Payload())) return true;
      VisibilityResult at_end = CheckVisibility(ctx, v, end_time);
      if (at_end.must_abort) {
        phantom = true;
        return false;
      }
      if (!at_end.visible) return true;
      VisibilityResult at_begin = CheckVisibility(ctx, v, begin_time);
      if (at_begin.must_abort || !at_begin.visible) {
        phantom = true;
        return false;
      }
      return true;
    });
    if (phantom) return Status::Aborted(AbortReason::kPhantom);
  }
  return Status::OK();
}

void MVEngine::WriteLog(Transaction* txn) {
  if (!LogsCommits() || txn->write_set.empty()) return;
  thread_local std::vector<uint8_t> buffer;
  buffer.clear();
  LogRecordBuilder builder(buffer);
  builder.BeginRecord(txn->end_ts.load(std::memory_order_relaxed), txn->id);
  for (const WriteSetEntry& w : txn->write_set) {
    if (w.old_version == nullptr && w.new_version != nullptr) {
      builder.AddInsert(w.table->id(), w.new_version->Payload(),
                        w.table->payload_size());
    } else if (w.old_version != nullptr && w.new_version != nullptr) {
      builder.AddUpdate(w.table->id(), w.table->index(0).KeyOf(w.new_version),
                        w.old_version->Payload(), w.new_version->Payload(),
                        w.table->payload_size());
    } else if (w.old_version != nullptr) {
      builder.AddDelete(w.table->id(),
                        w.table->index(0).KeyOf(w.old_version));
    }
  }
  builder.EndRecord();
  logger_->Append(buffer);
}

void MVEngine::Postprocess(Transaction* txn, bool committed) {
  if (committed) {
    const Timestamp ts = txn->end_ts.load(std::memory_order_relaxed);
    for (const WriteSetEntry& w : txn->write_set) {
      if (w.new_version != nullptr) {
        w.new_version->begin.store(beginword::MakeTimestamp(ts),
                                   std::memory_order_release);
      }
      if (w.old_version != nullptr) {
        // All read locks are gone (precommit barrier), so the lock word is
        // exactly (count=0, writer=us); finalize to the end timestamp.
        uint64_t end_word = w.old_version->end.load(std::memory_order_acquire);
        while (lockword::IsLockWord(end_word) &&
               lockword::WriterOf(end_word) == txn->id) {
          if (w.old_version->end.compare_exchange_weak(
                  end_word, lockword::MakeTimestamp(ts),
                  std::memory_order_acq_rel)) {
            break;
          }
        }
      }
    }
  } else {
    for (const WriteSetEntry& w : txn->write_set) {
      if (w.new_version != nullptr) {
        // Make the aborted version invisible to everyone (Section 3.3).
        w.new_version->begin.store(beginword::MakeTimestamp(kInfinity),
                                   std::memory_order_release);
      }
      if (w.old_version != nullptr) {
        // Reset the End field to infinity unless another transaction has
        // already detected our abort and taken over the write lock.
        uint64_t end_word = w.old_version->end.load(std::memory_order_acquire);
        while (lockword::IsLockWord(end_word) &&
               lockword::WriterOf(end_word) == txn->id) {
          uint64_t desired;
          if (lockword::ReadCountOf(end_word) == 0) {
            desired = lockword::MakeTimestamp(kInfinity);
          } else {
            // Readers remain: just clear our write lock; the last reader
            // release normalizes the word.
            desired = lockword::WithWriter(end_word, lockword::kNoWriter);
          }
          if (w.old_version->end.compare_exchange_weak(
                  end_word, desired, std::memory_order_acq_rel)) {
            break;
          }
        }
      }
    }
  }
}

void MVEngine::Terminate(Transaction* txn, bool committed) {
  const Timestamp end_ts = txn->end_ts.load(std::memory_order_relaxed);
  for (const WriteSetEntry& w : txn->write_set) {
    if (committed) {
      if (w.old_version != nullptr) {
        // Superseded at end_ts; reclaim once no reader can see it.
        gc_->Enqueue(w.table, w.old_version, end_ts);
      }
    } else {
      if (w.new_version != nullptr) {
        gc_->EnqueueImmediate(w.table, w.new_version);
      }
    }
  }
  txn->state.store(TxnState::kTerminated, std::memory_order_release);
  txn_table_.Remove(txn->id);
  // Back to the pool once no visibility check can still dereference it.
  epoch_.Retire(
      txn,
      [](void* p, void* pool) {
        static_cast<ObjectPool<Transaction>*>(pool)->Release(
            static_cast<Transaction*>(p));
      },
      &txn_pool_);
}

Status MVEngine::DoAbort(Transaction* txn, AbortReason reason) {
  EpochGuard guard(epoch_);
  txn->state.store(TxnState::kAborted, std::memory_order_release);
  ReleaseHeldLocks(txn);
  if (UsesWaitFors(txn)) {
    txn->no_more_wait_fors.store(true, std::memory_order_seq_cst);
    DrainWaitingList(txn);
  }
  ResolveCommitDependencies(txn, /*committed=*/false, txn_table_);
  Postprocess(txn, /*committed=*/false);
  stats_.Add(Stat::kTxnAborted);
  stats_.Add(AbortStat(reason));
  Terminate(txn, /*committed=*/false);
  gc_->Cooperate(options_.cooperative_gc_budget);
  return Status::Aborted(reason);
}

void MVEngine::Abort(Txn* txn) {
  DoAbort(static_cast<Transaction*>(txn), AbortReason::kUserRequested);
}

Status MVEngine::Commit(Txn* handle) {
  auto* txn = static_cast<Transaction*>(handle);
  // No epoch guard across this function: it contains blocking waits, and
  // pinning an epoch while blocked would stall reclamation engine-wide.
  //
  // Phase timing (docs/OBSERVABILITY.md): validate = entry through the
  // commit-dep wait; log append = WriteLog minus the group-commit wait the
  // Logger measures itself.
  CommitTimer timer(*this, txn->start_ticks);
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  // End of normal processing: release locks, wait out wait-for deps.
  if (!FinishNormalProcessing(txn)) {
    return DoAbort(txn, KillReason(txn));
  }

  // Precommit (Section 2.4): publish Preparing FIRST, then draw the end
  // timestamp. The order is load-bearing: a concurrent reader whose begin
  // timestamp is B and who still observes our state as Active must be able
  // to conclude that our end timestamp T — not yet drawn, because drawing
  // happens after the Preparing store it did not see — will satisfy T > B,
  // which is what makes "writer Active => old version still visible / new
  // version invisible" sound. With the reverse order there is a window
  // where T <= B is already fixed while readers still see Active, and a
  // scan can return a value that never existed at its snapshot (one leg of
  // a committed update). Readers that catch Preparing before the timestamp
  // store spin in AwaitEndTimestamp.
  txn->state.store(TxnState::kPreparing, std::memory_order_seq_cst);
  txn->end_ts.store(clock_.Next(), std::memory_order_seq_cst);

  // Now that the serialization point is fixed, release read and bucket
  // locks and the outgoing wait-for dependencies (Section 4.2.2). Any
  // updater of a version we read is still waiting on our read lock here, so
  // its end timestamp is necessarily greater than ours.
  ReleaseHeldLocks(txn);
  if (UsesWaitFors(txn)) DrainWaitingList(txn);

  // Optimistic validation (Section 3.2).
  if (!txn->pessimistic &&
      (txn->isolation == IsolationLevel::kSerializable ||
       txn->isolation == IsolationLevel::kRepeatableRead)) {
    Status vs = Validate(txn);
    if (!vs.ok()) return DoAbort(txn, vs.abort_reason());
  } else if (txn->pessimistic &&
             txn->isolation == IsolationLevel::kSerializable) {
    // MV/L phantom protection for range scans: bucket locks cover hash
    // buckets only, so ordered-index ranges are revalidated by rescan, the
    // one place a pessimistic transaction can abort at commit.
    Status vs = ValidateRangeScans(txn);
    if (!vs.ok()) return DoAbort(txn, vs.abort_reason());
  }

  // Wait for outstanding commit dependencies (Sections 2.7, 3.2, 4.3.2).
  if (txn->commit_dep_counter.load(std::memory_order_acquire) > 0) {
    stats_.Add(Stat::kCommitDepWaits);
    txn->WaitEvent([&] {
      return txn->commit_dep_counter.load(std::memory_order_acquire) == 0 ||
             txn->abort_now.load(std::memory_order_acquire);
    });
  }
  if (txn->abort_now.load(std::memory_order_acquire)) {
    return DoAbort(txn, KillReason(txn));
  }
  timer.MarkValidated();

  // Log and commit.
  WriteLog(txn);
  timer.MarkLogged(!txn->write_set.empty() && LogsCommits());
  txn->state.store(TxnState::kCommitted, std::memory_order_seq_cst);
  {
    EpochGuard guard(epoch_);
    ResolveCommitDependencies(txn, /*committed=*/true, txn_table_);
  }
  Postprocess(txn, /*committed=*/true);
  stats_.Add(Stat::kTxnCommitted);
  const uint64_t writes = txn->write_set.size();
  const TxnId txn_id = txn->id;
  Terminate(txn, /*committed=*/true);
  gc_->Cooperate(options_.cooperative_gc_budget);
  RecordCommit(timer, txn_id, writes);
  return Status::OK();
}

}  // namespace mvstore
