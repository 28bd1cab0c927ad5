// MV/L-specific behavior (paper Section 4): record read locks in the End
// word, eager updates with wait-for dependencies, bucket locks, the
// NoMoreReadLocks starvation guard, and deadlock detection.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "cc/mv_engine.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class PessimisticTest : public ::testing::Test {
 protected:
  PessimisticTest() {
    MVEngineOptions opts;
    opts.log_mode = LogMode::kDisabled;
    opts.deadlock_interval_us = 500;
    engine_ = std::make_unique<MVEngine>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = engine_->CreateTable(def);
  }

  Transaction* BeginPess(IsolationLevel iso) {
    Transaction* txn = engine_->Begin(iso, /*pessimistic=*/true);
    // `true` must bind to `pessimistic`, never to `read_only`.
    EXPECT_TRUE(txn->pessimistic);
    EXPECT_FALSE(txn->read_only);
    return txn;
  }

  void Put(uint64_t key, uint64_t value) {
    Transaction* t = BeginPess(IsolationLevel::kReadCommitted);
    Row row{key, value};
    ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  /// The single visible version for `key` (test helper; single-threaded use).
  Version* VersionOf(uint64_t key) {
    Version* found = nullptr;
    engine_->table(table_).index(0).ScanBucket(key, [&](Version* v) {
      if (engine_->table(table_).index(0).KeyOf(v) == key) {
        uint64_t b = v->begin.load();
        if (!beginword::IsTxnId(b) && beginword::TimestampOf(b) != kInfinity) {
          uint64_t e = v->end.load();
          if (lockword::IsLockWord(e) ||
              lockword::TimestampOf(e) == kInfinity) {
            found = v;
            return false;
          }
        }
      }
      return true;
    });
    return found;
  }

  std::unique_ptr<MVEngine> engine_;
  TableId table_ = 0;
};

/// A serializable read takes a record read lock: ReadLockCount appears in
/// the End word (Section 4.1.1).
TEST_F(PessimisticTest, SerializableReadTakesRecordLock) {
  Put(1, 10);
  Transaction* t = BeginPess(IsolationLevel::kSerializable);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());

  Version* v = VersionOf(1);
  ASSERT_NE(v, nullptr);
  uint64_t end_word = v->end.load();
  ASSERT_TRUE(lockword::IsLockWord(end_word));
  EXPECT_EQ(lockword::ReadCountOf(end_word), 1u);
  EXPECT_FALSE(lockword::HasWriter(end_word));

  ASSERT_TRUE(engine_->Commit(t).ok());
  // After commit the lock is gone and the word normalized to infinity.
  end_word = v->end.load();
  EXPECT_FALSE(lockword::IsLockWord(end_word));
  EXPECT_EQ(lockword::TimestampOf(end_word), kInfinity);
}

/// Read Committed takes no record locks (Section 4.3.1).
TEST_F(PessimisticTest, ReadCommittedTakesNoLock) {
  Put(1, 10);
  Transaction* t = BeginPess(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  Version* v = VersionOf(1);
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(lockword::IsLockWord(v->end.load()));
  ASSERT_TRUE(engine_->Commit(t).ok());
}

/// Multiple concurrent readers share the lock (reader count accumulates).
TEST_F(PessimisticTest, MultipleReadersShareLock) {
  Put(1, 10);
  Transaction* t1 = BeginPess(IsolationLevel::kSerializable);
  Transaction* t2 = BeginPess(IsolationLevel::kSerializable);
  Row row{};
  ASSERT_TRUE(engine_->Read(t1, table_, 0, 1, &row).ok());
  ASSERT_TRUE(engine_->Read(t2, table_, 0, 1, &row).ok());
  Version* v = VersionOf(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(lockword::ReadCountOf(v->end.load()), 2u);
  ASSERT_TRUE(engine_->Commit(t1).ok());
  ASSERT_TRUE(engine_->Commit(t2).ok());
}

/// Eager update: a writer write-locks a read-locked version without
/// blocking, but cannot precommit until the reader releases (Section 4.2).
TEST_F(PessimisticTest, EagerUpdateWaitsForReader) {
  Put(1, 10);
  Transaction* reader = BeginPess(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());

  Transaction* writer = BeginPess(IsolationLevel::kReadCommitted);
  // Update succeeds immediately (no blocking during normal processing).
  ASSERT_TRUE(engine_->Update(writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  EXPECT_EQ(writer->wait_for_counter.load(), 1);

  // Writer's commit must wait for the reader.
  std::atomic<bool> committed{false};
  std::thread commit_thread([&] {
    EXPECT_TRUE(engine_->Commit(writer).ok());
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());  // still parked on the wait-for dependency

  ASSERT_TRUE(engine_->Commit(reader).ok());  // releases the read lock
  commit_thread.join();
  EXPECT_TRUE(committed.load());

  Transaction* check = BeginPess(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Read(check, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 11u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

/// A reader can read-lock an already write-locked version; the writer then
/// waits for that reader too (Section 4.2.1, second flavor).
TEST_F(PessimisticTest, ReaderLocksWriteLockedVersion) {
  Put(1, 10);
  Transaction* writer = BeginPess(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  EXPECT_EQ(writer->wait_for_counter.load(), 0);  // no readers yet

  Transaction* reader = BeginPess(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);  // reads the (still latest committed) version
  EXPECT_EQ(writer->wait_for_counter.load(), 1);  // reader imposed the wait

  std::atomic<bool> committed{false};
  std::thread commit_thread([&] {
    EXPECT_TRUE(engine_->Commit(writer).ok());
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());
  ASSERT_TRUE(engine_->Commit(reader).ok());
  commit_thread.join();
}

/// Releasing the last read lock on a write-locked version sets
/// NoMoreReadLocks; later read-lock attempts abort (starvation guard).
TEST_F(PessimisticTest, NoMoreReadLocksBlocksLateReaders) {
  Put(1, 10);
  Transaction* writer = BeginPess(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());

  Transaction* reader = BeginPess(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());
  ASSERT_TRUE(engine_->Commit(reader).ok());  // last release -> flag set

  Version* v = VersionOf(1);
  ASSERT_NE(v, nullptr);
  EXPECT_TRUE(lockword::NoMoreReadLocks(v->end.load()));

  Transaction* late = BeginPess(IsolationLevel::kRepeatableRead);
  Status s = engine_->Read(late, table_, 0, 1, &row);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kReadLockFailed);

  ASSERT_TRUE(engine_->Commit(writer).ok());
}

/// Serializable scans bucket-lock their buckets; inserters into a locked
/// bucket take a wait-for dependency and cannot commit first (Section 4.2.2).
TEST_F(PessimisticTest, BucketLockDelaysInserter) {
  Put(1, 10);
  Transaction* scanner = BeginPess(IsolationLevel::kSerializable);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(scanner, table_, 0, 99, nullptr, [&](const void*) {
                   ++seen;
                   return true;
                 }).ok());
  EXPECT_EQ(seen, 0);

  Transaction* inserter = BeginPess(IsolationLevel::kReadCommitted);
  Row row{99, 1};
  ASSERT_TRUE(engine_->Insert(inserter, table_, &row).ok());
  EXPECT_GE(inserter->wait_for_counter.load(), 1);

  std::atomic<bool> committed{false};
  std::thread commit_thread([&] {
    EXPECT_TRUE(engine_->Commit(inserter).ok());
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());  // must wait for the scanner

  ASSERT_TRUE(engine_->Commit(scanner).ok());
  commit_thread.join();
}

/// The scanner side of phantom protection: a serializable scanner that
/// encounters an invisible uncommitted insert imposes the dependency itself.
TEST_F(PessimisticTest, ScannerImposesDependencyOnInserter) {
  Transaction* inserter = BeginPess(IsolationLevel::kReadCommitted);
  Row row{42, 1};
  ASSERT_TRUE(engine_->Insert(inserter, table_, &row).ok());
  EXPECT_EQ(inserter->wait_for_counter.load(), 0);

  Transaction* scanner = BeginPess(IsolationLevel::kSerializable);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(scanner, table_, 0, 42, nullptr, [&](const void*) {
                   ++seen;
                   return true;
                 }).ok());
  EXPECT_EQ(seen, 0);  // uncommitted insert is invisible
  EXPECT_EQ(inserter->wait_for_counter.load(), 1);  // but it must now wait

  std::atomic<bool> committed{false};
  std::thread commit_thread([&] {
    EXPECT_TRUE(engine_->Commit(inserter).ok());
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());
  ASSERT_TRUE(engine_->Commit(scanner).ok());
  commit_thread.join();
}

/// Classic two-transaction deadlock through read locks + eager updates;
/// the detector (Tarjan over the wait-for graph) aborts one victim.
TEST_F(PessimisticTest, DeadlockDetectedAndResolved) {
  Put(1, 10);
  Put(2, 20);

  auto crossing_txn = [&](uint64_t read_key, uint64_t write_key, Status* out) {
    Transaction* t = BeginPess(IsolationLevel::kRepeatableRead);
    Row row{};
    Status s = engine_->Read(t, table_, 0, read_key, &row);
    if (s.IsAborted()) {
      *out = s;
      return;
    }
    s = engine_->Update(t, table_, 0, write_key, [](void* p) {
      static_cast<Row*>(p)->value += 1;
    });
    if (s.IsAborted()) {
      *out = s;
      return;
    }
    *out = engine_->Commit(t);
  };

  Status s1, s2;
  std::thread t1([&] { crossing_txn(1, 2, &s1); });
  std::thread t2([&] { crossing_txn(2, 1, &s2); });
  t1.join();
  t2.join();

  // At least one commits; if both waited, the detector broke the cycle.
  EXPECT_TRUE(s1.ok() || s2.ok());
  if (!(s1.ok() && s2.ok())) {
    const Status& failed = s1.ok() ? s2 : s1;
    EXPECT_TRUE(failed.IsAborted());
  }
}

/// Snapshot-isolation pessimistic transactions take no locks and read as of
/// begin time.
TEST_F(PessimisticTest, SnapshotPessimisticLockFree) {
  Put(1, 10);
  Transaction* t = BeginPess(IsolationLevel::kSnapshot);
  Row row{};

  Transaction* writer = BeginPess(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 99;
                 }).ok());
  ASSERT_TRUE(engine_->Commit(writer).ok());

  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);  // begin-time snapshot
  ASSERT_TRUE(engine_->Commit(t).ok());
}

/// Mixed mode (Section 4.5): an optimistic writer honors a pessimistic
/// reader's record lock via a wait-for dependency.
TEST_F(PessimisticTest, OptimisticWriterHonorsReadLock) {
  Put(1, 10);
  Transaction* reader = BeginPess(IsolationLevel::kSerializable);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());

  Transaction* opt_writer = engine_->Begin(IsolationLevel::kReadCommitted,
                                           /*pessimistic=*/false);
  ASSERT_TRUE(engine_->Update(opt_writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  // One dependency from the read lock; the serializable reader's bucket lock
  // adds a second when the new version lands in the scanned bucket.
  EXPECT_GE(opt_writer->wait_for_counter.load(), 1);

  std::atomic<bool> committed{false};
  std::thread commit_thread([&] {
    EXPECT_TRUE(engine_->Commit(opt_writer).ok());
    committed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(committed.load());
  ASSERT_TRUE(engine_->Commit(reader).ok());
  commit_thread.join();
}

/// The 8-bit ReadLockCount saturates at 255 concurrent read lockers; the
/// 256th aborts rather than overflowing into the WriteLock field.
TEST_F(PessimisticTest, ReadLockCountSaturation) {
  Put(1, 10);
  std::vector<Transaction*> readers;
  Row row{};
  for (int i = 0; i < 255; ++i) {
    Transaction* t = BeginPess(IsolationLevel::kRepeatableRead);
    ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok()) << i;
    readers.push_back(t);
  }
  Version* v = VersionOf(1);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(lockword::ReadCountOf(v->end.load()), 255u);

  Transaction* overflow = BeginPess(IsolationLevel::kRepeatableRead);
  Status s = engine_->Read(overflow, table_, 0, 1, &row);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kReadLockFailed);

  for (Transaction* t : readers) {
    ASSERT_TRUE(engine_->Commit(t).ok());
  }
  EXPECT_EQ(lockword::IsLockWord(v->end.load()), false);  // normalized
}

/// Read locks on non-latest versions are not required: a snapshot-ish read
/// of an older version under RR just proceeds (Section 4.3.1).
TEST_F(PessimisticTest, NoLockOnOlderVersions) {
  Put(1, 10);
  // Create version churn so older versions exist.
  for (int i = 0; i < 3; ++i) {
    Transaction* w = BeginPess(IsolationLevel::kReadCommitted);
    ASSERT_TRUE(engine_->Update(w, table_, 0, 1, [i](void* p) {
                     static_cast<Row*>(p)->value = 100 + i;
                   }).ok());
    ASSERT_TRUE(engine_->Commit(w).ok());
  }
  Transaction* t = BeginPess(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 102u);
  ASSERT_TRUE(engine_->Commit(t).ok());
}

}  // namespace
}  // namespace mvstore
