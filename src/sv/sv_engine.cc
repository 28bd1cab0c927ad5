#include "sv/sv_engine.h"

#include <cstring>

#include "log/log_record.h"

namespace mvstore {

SVEngine::SVEngine(SVEngineOptions options)
    : EngineCore(Scheme::kSingleVersion, options),
      options_(options),
      txn_pool_(options_.use_slab_allocator, &stats_) {}

TableId SVEngine::CreateTable(TableDef def) {
  TableId id = catalog_.CreateTable(std::move(def));
  Table& table = catalog_.table(id);
  lock_table_base_.push_back(static_cast<uint32_t>(lock_tables_.size()));
  for (uint32_t i = 0; i < table.num_indexes(); ++i) {
    // One lock per hash key: size the lock table like the index. Ordered
    // indexes get the same key-hash row locks plus a RangeLockManager for
    // interval (phantom) coverage.
    lock_tables_.push_back(
        std::make_unique<SVLockTable>(table.index_def(i).bucket_count));
    range_locks_.push_back(table.ordered_index(i) != nullptr
                               ? std::make_unique<RangeLockManager>()
                               : nullptr);
  }
  return id;
}

SVTransaction* SVEngine::Begin(IsolationLevel isolation, bool read_only) {
  (void)read_only;
  // Snapshot has no meaning single-versioned; strengthen to Repeatable Read.
  if (isolation == IsolationLevel::kSnapshot) {
    isolation = IsolationLevel::kRepeatableRead;
  }
  SVTransaction* txn = txn_pool_.Acquire(txn_ids_.Next(), isolation);
  txn->start_ticks = SampleStartTicks();
  return txn;
}

Status SVEngine::AcquireLock(SVTransaction* txn, SVLockTable& locks,
                             uint64_t key, bool exclusive) {
  KeyLock* lock = locks.LockFor(key);
  HeldLockSet::Entry* held = txn->locks.Find(lock);
  if (held != nullptr) {
    if (held->exclusive || !exclusive) return Status::OK();
    // Upgrade S -> X.
    stats_.Add(Stat::kLockWaits);
    if (!SVLockTable::AcquireExclusive(lock, txn->id, /*held_shared=*/true,
                                       options_.lock_timeout_us)) {
      // Our shared slot was consumed by the failed upgrade; drop the entry
      // so release doesn't double-release.
      txn->locks.Drop(held);
      return Status::Aborted(AbortReason::kLockTimeout);
    }
    held->exclusive = true;
    return Status::OK();
  }
  bool ok = exclusive
                ? SVLockTable::AcquireExclusive(lock, txn->id, false,
                                                options_.lock_timeout_us)
                : SVLockTable::AcquireShared(lock, txn->id,
                                             options_.lock_timeout_us);
  if (!ok) return Status::Aborted(AbortReason::kLockTimeout);
  txn->locks.Add(lock, exclusive);
  return Status::OK();
}

Version* SVEngine::FindRow(Table& table, IndexId index_id, uint64_t key,
                           const std::function<bool(const void*)>& residual) {
  Version* found = nullptr;
  auto probe = [&](Version* v) {
    if (table.IndexKeyOf(index_id, v) != key) return true;
    if (residual && !residual(v->Payload())) return true;
    found = v;
    return false;
  };
  table.ScanIndexKey(index_id, key, probe);
  return found;
}

Status SVEngine::ReadRowForScan(SVTransaction* txn, Table& table,
                                IndexId index_id, SVLockTable& locks,
                                Version* v, bool cursor_stability,
                                const std::function<bool(const void*)>& residual,
                                const std::function<bool(const void*)>& consumer,
                                bool* keep_going) {
  *keep_going = true;
  const uint64_t key = table.IndexKeyOf(index_id, v);
  KeyLock* lock = locks.LockFor(key);
  HeldLockSet::Entry* held = txn->locks.Find(lock);
  bool release_after = false;
  if (held == nullptr) {
    if (!SVLockTable::AcquireShared(lock, txn->id, options_.lock_timeout_us)) {
      return Status::Aborted(AbortReason::kLockTimeout);
    }
    if (cursor_stability ||
        txn->isolation == IsolationLevel::kReadCommitted) {
      release_after = true;
    } else {
      txn->locks.Add(lock, /*exclusive=*/false);
    }
    // Membership re-check: the index walk found `v` before we held the
    // lock, so a writer may have unlinked it in the window (aborted
    // insert, committed delete). Unconditional even when the acquisition
    // never waited: a writer can take X, unlink, and release entirely
    // inside that window without contending with our acquire. Only a row
    // we already held the lock for needs no check.
    bool linked = false;
    table.ScanIndexKey(index_id, key, [&](Version* candidate) {
      if (candidate == v) {
        linked = true;
        return false;
      }
      return true;
    });
    if (!linked) {
      if (release_after) SVLockTable::ReleaseShared(lock);
      return Status::OK();  // skip the vanished row; *keep_going stays true
    }
  }
  if (!residual || residual(v->Payload())) {
    *keep_going = consumer(v->Payload());
  }
  if (release_after) SVLockTable::ReleaseShared(lock);
  return Status::OK();
}

Status SVEngine::AcquireOrderedPoints(SVTransaction* txn, TableId table_id,
                                      Table& table, const void* payload) {
  for (uint32_t i = 0; i < table.num_indexes(); ++i) {
    RangeLockManager* ranges =
        range_locks_[lock_table_base_[table_id] + i].get();
    if (ranges == nullptr) continue;
    uint64_t key = table.IndexKeyOfPayload(i, payload);
    if (!ranges->AcquirePoint(txn->id, key, options_.lock_timeout_us)) {
      return Status::Aborted(AbortReason::kLockTimeout);
    }
    txn->range_locks.push_back(
        SVTransaction::RangeLockHold{ranges, key, key, /*point=*/true});
  }
  return Status::OK();
}

Status SVEngine::Scan(Txn* handle, TableId table_id, IndexId index_id,
                      uint64_t key, const Predicate& residual,
                      const ScanConsumer& consumer) {
  auto* txn = static_cast<SVTransaction*>(handle);
  Table& table = catalog_.table(table_id);
  if (table.ordered_index(index_id) != nullptr) {
    // Equality probe on the ordered access path: a degenerate range (the
    // range machinery supplies the phantom coverage a hash-key lock would).
    return ScanRange(txn, table_id, index_id, key, key, residual, consumer);
  }
  HashIndex& index = table.index(index_id);
  SVLockTable& locks = *lock_tables_[lock_table_base_[table_id] + index_id];

  const bool short_lock = txn->isolation == IsolationLevel::kReadCommitted;
  KeyLock* lock = locks.LockFor(key);
  HeldLockSet::Entry* held = txn->locks.Find(lock);
  bool release_after = false;
  if (held == nullptr) {
    if (!SVLockTable::AcquireShared(lock, txn->id, options_.lock_timeout_us)) {
      return DoAbort(txn, AbortReason::kLockTimeout);
    }
    if (short_lock) {
      release_after = true;  // cursor stability: release when the read ends
    } else {
      txn->locks.Add(lock, /*exclusive=*/false);
    }
  }

  {
    EpochGuard guard(epoch_);
    index.ScanBucket(key, [&](Version* v) {
      if (index.KeyOf(v) != key) return true;
      if (residual && !residual(v->Payload())) return true;
      return consumer(v->Payload());
    });
  }

  if (release_after) SVLockTable::ReleaseShared(lock);
  return Status::OK();
}

Status SVEngine::ScanRange(Txn* handle, TableId table_id, IndexId index_id,
                           uint64_t lo, uint64_t hi, const Predicate& residual,
                           const ScanConsumer& consumer) {
  auto* txn = static_cast<SVTransaction*>(handle);
  Table& table = catalog_.table(table_id);
  OrderedIndex* index = table.ordered_index(index_id);
  if (index == nullptr) return Status::InvalidArgument();
  SVLockTable& key_locks = *lock_tables_[lock_table_base_[table_id] + index_id];
  RangeLockManager& ranges =
      *range_locks_[lock_table_base_[table_id] + index_id];

  // Serializable: predicate-lock the interval before reading, so inserts
  // and deletes inside it wait for us (or time out) — strict 2PL phantom
  // protection over a range the hash-key locks cannot express.
  if (txn->isolation == IsolationLevel::kSerializable) {
    if (!ranges.AcquireRange(txn->id, lo, hi, options_.lock_timeout_us)) {
      return DoAbort(txn, AbortReason::kLockTimeout);
    }
    txn->range_locks.push_back(
        SVTransaction::RangeLockHold{&ranges, lo, hi, /*point=*/false});
  }

  EpochGuard guard(epoch_);
  Status result = Status::OK();
  index->ScanRange(lo, hi, [&](Version* v) {
    // Rows are read under their ordered-key hash lock (short under Read
    // Committed — cursor stability — held to commit otherwise): deleters
    // and in-place writers X-lock it, so payload and membership are
    // stable while we hold S.
    bool keep_going = true;
    Status s = ReadRowForScan(txn, table, index_id, key_locks, v,
                              /*cursor_stability=*/false, residual, consumer,
                              &keep_going);
    if (!s.ok()) {
      result = s;
      return false;
    }
    return keep_going;
  });
  if (result.IsAborted()) return DoAbort(txn, result.abort_reason());
  return result;
}

Status SVEngine::ScanTable(Txn* handle, TableId table_id,
                           const ScanConsumer& consumer) {
  auto* txn = static_cast<SVTransaction*>(handle);
  Table& table = catalog_.table(table_id);
  SVLockTable& locks = *lock_tables_[lock_table_base_[table_id]];
  EpochGuard guard(epoch_);
  Status result = Status::OK();
  table.index(0).ScanAll([&](Version* v) {
    // Cursor stability only: each row's lock is released after the read
    // regardless of isolation (a full scan must not accumulate the whole
    // table's locks).
    bool keep_going = true;
    Status s = ReadRowForScan(txn, table, 0, locks, v,
                              /*cursor_stability=*/true, nullptr, consumer,
                              &keep_going);
    if (!s.ok()) {
      result = s;
      return false;
    }
    return keep_going;
  });
  if (result.IsAborted()) return DoAbort(txn, result.abort_reason());
  return result;
}

Status SVEngine::Insert(Txn* handle, TableId table_id, const void* payload) {
  auto* txn = static_cast<SVTransaction*>(handle);
  Table& table = catalog_.table(table_id);
  HashIndex& primary = table.index(0);
  SVLockTable& primary_locks = *lock_tables_[lock_table_base_[table_id]];
  const uint64_t key = primary.KeyOfPayload(payload);

  Status s = AcquireLock(txn, primary_locks, key, /*exclusive=*/true);
  if (!s.ok()) return DoAbort(txn, s.abort_reason());

  EpochGuard guard(epoch_);
  if (table.index_def(0).unique &&
      FindRow(table, 0, key, nullptr) != nullptr) {
    return Status::AlreadyExists();  // lock stays held (2PL)
  }
  Version* row = table.AllocateVersion(payload);
  row->begin.store(beginword::MakeTimestamp(0), std::memory_order_relaxed);
  // Lock the secondary keys too before publishing.
  for (uint32_t i = 1; i < table.num_indexes(); ++i) {
    uint64_t k = table.IndexKeyOfPayload(i, payload);
    Status s2 = AcquireLock(txn, *lock_tables_[lock_table_base_[table_id] + i],
                            k, /*exclusive=*/true);
    if (!s2.ok()) {
      table.FreeUnpublishedVersion(row);
      return DoAbort(txn, s2.abort_reason());
    }
  }
  // Ordered indexes: the new keys must not land inside a range a
  // serializable scanner holds (phantom); wait it out or time out.
  Status sp = AcquireOrderedPoints(txn, table_id, table, payload);
  if (!sp.ok()) {
    table.FreeUnpublishedVersion(row);
    return DoAbort(txn, sp.abort_reason());
  }
  table.InsertIntoAllIndexes(row);
  txn->undo.push_back(
      SVTransaction::UndoEntry{SVTransaction::UndoOp::kInsert, &table, row, {}});
  return Status::OK();
}

Status SVEngine::Update(Txn* handle, TableId table_id, IndexId index_id,
                        uint64_t key, const Mutator& mutator) {
  auto* txn = static_cast<SVTransaction*>(handle);
  Table& table = catalog_.table(table_id);
  SVLockTable& locks = *lock_tables_[lock_table_base_[table_id] + index_id];

  Status s = AcquireLock(txn, locks, key, /*exclusive=*/true);
  if (!s.ok()) return DoAbort(txn, s.abort_reason());

  EpochGuard guard(epoch_);
  Version* row = FindRow(table, index_id, key, nullptr);
  if (row == nullptr) return Status::NotFound();

  // If updating through a secondary index, also X-lock the primary key so
  // writers serialize regardless of access path.
  if (index_id != 0) {
    uint64_t pk = table.IndexKeyOf(0, row);
    Status s2 = AcquireLock(txn, *lock_tables_[lock_table_base_[table_id]], pk,
                            /*exclusive=*/true);
    if (!s2.ok()) return DoAbort(txn, s2.abort_reason());
  }
  // X-lock the row's key in every ordered index: range scans read rows
  // under those keys' S locks, and the in-place mutation below must not
  // race them. (In-place updates cannot change index keys, so the keys
  // read here are stable.)
  for (uint32_t i = 0; i < table.num_indexes(); ++i) {
    if (i == index_id || table.ordered_index(i) == nullptr) continue;
    uint64_t k = table.IndexKeyOf(i, row);
    Status s2 = AcquireLock(txn, *lock_tables_[lock_table_base_[table_id] + i],
                            k, /*exclusive=*/true);
    if (!s2.ok()) return DoAbort(txn, s2.abort_reason());
  }

  SVTransaction::UndoEntry entry;
  entry.op = SVTransaction::UndoOp::kUpdate;
  entry.table = &table;
  entry.row = row;
  entry.before.resize(table.payload_size());
  std::memcpy(entry.before.data(), row->Payload(), table.payload_size());
  txn->undo.push_back(std::move(entry));

  mutator(row->Payload());  // in place, under the X lock
  return Status::OK();
}

Status SVEngine::Delete(Txn* handle, TableId table_id, IndexId index_id,
                        uint64_t key) {
  auto* txn = static_cast<SVTransaction*>(handle);
  Table& table = catalog_.table(table_id);
  SVLockTable& locks = *lock_tables_[lock_table_base_[table_id] + index_id];

  Status s = AcquireLock(txn, locks, key, /*exclusive=*/true);
  if (!s.ok()) return DoAbort(txn, s.abort_reason());

  EpochGuard guard(epoch_);
  Version* row = FindRow(table, index_id, key, nullptr);
  if (row == nullptr) return Status::NotFound();

  // X-lock every index key of the row, then unlink everywhere.
  for (uint32_t i = 0; i < table.num_indexes(); ++i) {
    if (i == index_id) continue;
    uint64_t k = table.IndexKeyOf(i, row);
    Status s2 = AcquireLock(txn, *lock_tables_[lock_table_base_[table_id] + i],
                            k, /*exclusive=*/true);
    if (!s2.ok()) return DoAbort(txn, s2.abort_reason());
  }
  // Removing keys from an ordered index shrinks a serializable scanner's
  // result set just like an insert grows it: take the point entries first.
  Status sp = AcquireOrderedPoints(txn, table_id, table, row->Payload());
  if (!sp.ok()) return DoAbort(txn, sp.abort_reason());
  table.UnlinkFromAllIndexes(row);
  txn->undo.push_back(
      SVTransaction::UndoEntry{SVTransaction::UndoOp::kDelete, &table, row, {}});
  return Status::OK();
}

void SVEngine::ReleaseAllLocks(SVTransaction* txn) {
  for (const auto& e : txn->locks) {
    if (e.exclusive) {
      SVLockTable::ReleaseExclusive(e.lock);
    } else {
      SVLockTable::ReleaseShared(e.lock);
    }
  }
  txn->locks.Clear();
  for (const auto& r : txn->range_locks) {
    if (r.point) {
      r.manager->ReleasePoint(txn->id, r.lo);
    } else {
      r.manager->ReleaseRange(txn->id, r.lo, r.hi);
    }
  }
  txn->range_locks.clear();
}

void SVEngine::WriteLog(SVTransaction* txn) {
  if (!LogsCommits() || txn->undo.empty()) return;
  thread_local std::vector<uint8_t> buffer;
  buffer.clear();
  LogRecordBuilder builder(buffer);
  builder.BeginRecord(clock_.Next(), txn->id);
  for (const auto& u : txn->undo) {
    switch (u.op) {
      case SVTransaction::UndoOp::kInsert:
        builder.AddInsert(u.table->id(), u.row->Payload(),
                          u.table->payload_size());
        break;
      case SVTransaction::UndoOp::kUpdate:
        builder.AddUpdate(u.table->id(), u.table->index(0).KeyOf(u.row),
                          u.before.data(), u.row->Payload(),
                          u.table->payload_size());
        break;
      case SVTransaction::UndoOp::kDelete:
        builder.AddDelete(u.table->id(), u.table->index(0).KeyOf(u.row));
        break;
    }
  }
  builder.EndRecord();
  logger_->Append(buffer);
}

Status SVEngine::Commit(Txn* handle) {
  auto* txn = static_cast<SVTransaction*>(handle);
  // Phase timing (docs/OBSERVABILITY.md): 1V has no validation phase, so
  // commit_total decomposes into log append + group wait + release.
  CommitTimer timer(*this, txn->start_ticks);
  WriteLog(txn);
  timer.MarkLogged(!txn->undo.empty() && LogsCommits());
  // Deleted rows become unreachable only now; concurrent scans of other keys
  // may still traverse them, so retire through the epoch manager.
  for (const auto& u : txn->undo) {
    if (u.op == SVTransaction::UndoOp::kDelete) {
      epoch_.Retire(u.row, &Table::VersionDeleter, u.table);
    }
  }
  ReleaseAllLocks(txn);
  stats_.Add(Stat::kTxnCommitted);
  const uint64_t writes = txn->undo.size();
  const TxnId txn_id = txn->id;
  txn_pool_.Release(txn);
  RecordCommit(timer, txn_id, writes);
  return Status::OK();
}

Status SVEngine::DoAbort(SVTransaction* txn, AbortReason reason) {
  // Undo in reverse order under the still-held locks.
  for (auto it = txn->undo.rbegin(); it != txn->undo.rend(); ++it) {
    switch (it->op) {
      case SVTransaction::UndoOp::kInsert:
        it->table->UnlinkFromAllIndexes(it->row);
        epoch_.Retire(it->row, &Table::VersionDeleter, it->table);
        break;
      case SVTransaction::UndoOp::kUpdate:
        std::memcpy(it->row->Payload(), it->before.data(),
                    it->table->payload_size());
        break;
      case SVTransaction::UndoOp::kDelete:
        it->table->InsertIntoAllIndexes(it->row);
        break;
    }
  }
  ReleaseAllLocks(txn);
  stats_.Add(Stat::kTxnAborted);
  if (reason == AbortReason::kLockTimeout || reason == AbortReason::kDeadlock) {
    stats_.Add(Stat::kAbortDeadlock);
  }
  txn_pool_.Release(txn);
  return Status::Aborted(reason);
}

void SVEngine::Abort(Txn* txn) {
  DoAbort(static_cast<SVTransaction*>(txn), AbortReason::kUserRequested);
}

}  // namespace mvstore
