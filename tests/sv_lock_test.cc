// Unit tests for the 1V engine's partitioned lock table and the engine's
// locking behavior (paper Section 5: no central lock manager, key locks,
// timeout-based deadlock breaking).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "sv/held_lock_set.h"
#include "sv/lock_table.h"
#include "sv/sv_engine.h"

namespace mvstore {
namespace {

TEST(SVLockTableTest, SharedLocksCoexist) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  EXPECT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  EXPECT_TRUE(SVLockTable::AcquireShared(lock, 2, 1000));
  EXPECT_EQ(lock->readers.load(), 2u);
  SVLockTable::ReleaseShared(lock);
  SVLockTable::ReleaseShared(lock);
  EXPECT_EQ(lock->readers.load(), 0u);
}

TEST(SVLockTableTest, ExclusiveExcludesShared) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireExclusive(lock, 1, false, 1000));
  // Another transaction's S acquisition times out.
  EXPECT_FALSE(SVLockTable::AcquireShared(lock, 2, 500));
  // Same transaction's S succeeds (X implies S).
  EXPECT_TRUE(SVLockTable::AcquireShared(lock, 1, 500));
  SVLockTable::ReleaseExclusive(lock);
}

TEST(SVLockTableTest, ExclusiveWaitsForReaders) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  std::atomic<bool> acquired{false};
  std::thread writer([&] {
    EXPECT_TRUE(SVLockTable::AcquireExclusive(lock, 2, false, 200000));
    acquired.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(acquired.load());
  SVLockTable::ReleaseShared(lock);
  writer.join();
  EXPECT_TRUE(acquired.load());
  SVLockTable::ReleaseExclusive(lock);
}

TEST(SVLockTableTest, ExclusiveTimesOutAndRollsBack) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  EXPECT_FALSE(SVLockTable::AcquireExclusive(lock, 2, false, 1000));
  // Timed-out writer must not leave the writer word set.
  EXPECT_EQ(lock->writer.load(), 0u);
  SVLockTable::ReleaseShared(lock);
}

TEST(SVLockTableTest, UpgradeConsumesSharedSlot) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  ASSERT_TRUE(SVLockTable::AcquireExclusive(lock, 1, /*held_shared=*/true,
                                            10000));
  EXPECT_EQ(lock->readers.load(), 0u);
  EXPECT_EQ(lock->writer.load(), 1u);
  SVLockTable::ReleaseExclusive(lock);
}

TEST(SVLockTableTest, TwoUpgradersBothTimeOutOrOneWins) {
  SVLockTable table(64);
  KeyLock* lock = table.LockFor(1);
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 1, 1000));
  ASSERT_TRUE(SVLockTable::AcquireShared(lock, 2, 1000));
  std::atomic<int> wins{0};
  std::thread u1([&] {
    if (SVLockTable::AcquireExclusive(lock, 1, true, 5000)) wins.fetch_add(1);
  });
  std::thread u2([&] {
    if (SVLockTable::AcquireExclusive(lock, 2, true, 5000)) wins.fetch_add(1);
  });
  u1.join();
  u2.join();
  EXPECT_LE(wins.load(), 1);  // upgrade deadlock broken by timeout
}

TEST(SVLockTableTest, DistinctKeysUsuallyDistinctLocks) {
  SVLockTable table(1024);
  int collisions = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    if (table.LockFor(k) == table.LockFor(k + 1000)) ++collisions;
  }
  EXPECT_LT(collisions, 10);
}

/// --- the held-lock set --------------------------------------------------------

// Random Add/Drop/Clear against a reference map, checking Find for members
// and non-members along the way: exercises growth from the minimum size,
// swap-removal, and backward-shift deletion inside probe runs.
TEST(HeldLockSetTest, RandomOpsMatchReference) {
  SVLockTable table(4096);
  HeldLockSet set;
  std::map<KeyLock*, bool> ref;
  Random rng(42);
  auto check_all = [&] {
    size_t iterated = 0;
    for (const HeldLockSet::Entry& e : set) {
      ++iterated;
      auto it = ref.find(e.lock);
      ASSERT_NE(it, ref.end());
      EXPECT_EQ(e.exclusive, it->second);
    }
    EXPECT_EQ(iterated, ref.size());
    for (const auto& [lock, exclusive] : ref) {
      HeldLockSet::Entry* e = set.Find(lock);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->lock, lock);
      EXPECT_EQ(e->exclusive, exclusive);
    }
  };
  for (int op = 0; op < 40000; ++op) {
    KeyLock* lock = table.LockFor(rng.Uniform(3000));
    HeldLockSet::Entry* found = set.Find(lock);
    ASSERT_EQ(found != nullptr, ref.count(lock) == 1) << "op " << op;
    const uint64_t dice = rng.Uniform(1000);
    if (dice == 0) {
      set.Clear();
      ref.clear();
    } else if (found == nullptr && dice < 600) {
      const bool exclusive = rng.Uniform(2) == 0;
      set.Add(lock, exclusive);
      ref[lock] = exclusive;
    } else if (found != nullptr && dice < 400) {
      set.Drop(found);
      ref.erase(lock);
    }
    if (op % 500 == 0) check_all();
  }
  check_all();
  set.Clear();
  for (const HeldLockSet::Entry& e : set) ADD_FAILURE() << e.lock;
  EXPECT_EQ(set.Find(table.LockFor(1)), nullptr);
}

/// --- engine-level locking semantics ------------------------------------------

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class SVEngineTest : public ::testing::Test {
 protected:
  SVEngineTest() {
    SVEngineOptions opts;
    opts.log_mode = LogMode::kDisabled;
    opts.lock_timeout_us = 3000;
    engine_ = std::make_unique<SVEngine>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = engine_->CreateTable(def);
  }

  void Put(uint64_t key, uint64_t value) {
    SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
    Row row{key, value};
    ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  /// A second table of rows 0..n-1 with one lock partition per row.
  TableId LoadRows(uint64_t n) {
    TableDef def;
    def.name = "many";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, n, true});
    TableId id = engine_->CreateTable(def);
    SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
    for (uint64_t k = 0; k < n; ++k) {
      Row row{k, k};
      EXPECT_TRUE(engine_->Insert(t, id, &row).ok());
    }
    EXPECT_TRUE(engine_->Commit(t).ok());
    return id;
  }

  /// The distinct key locks guarding keys 0..n-1 of `table`.
  std::set<KeyLock*> LocksOf(TableId table, uint64_t n) {
    std::set<KeyLock*> locks;
    for (uint64_t k = 0; k < n; ++k) {
      locks.insert(engine_->KeyLockFor(table, 0, k));
    }
    return locks;
  }

  static size_t CountReaders(const std::set<KeyLock*>& locks,
                             uint32_t readers) {
    size_t n = 0;
    for (KeyLock* l : locks) {
      if (l->readers.load() == readers && l->writer.load() == 0) ++n;
    }
    return n;
  }

  std::unique_ptr<SVEngine> engine_;
  TableId table_ = 0;
};

TEST_F(SVEngineTest, WriterBlocksWriter) {
  Put(1, 10);
  SVTransaction* t1 = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(t1, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  SVTransaction* t2 = engine_->Begin(IsolationLevel::kReadCommitted);
  Status s = engine_->Update(t2, table_, 0, 1, [](void* p) {
    static_cast<Row*>(p)->value = 12;
  });
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kLockTimeout);
  ASSERT_TRUE(engine_->Commit(t1).ok());
}

TEST_F(SVEngineTest, RepeatableReadHoldsLocksToCommit) {
  Put(1, 10);
  SVTransaction* reader = engine_->Begin(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());

  // A concurrent updater times out against the held S lock.
  SVTransaction* writer = engine_->Begin(IsolationLevel::kReadCommitted);
  Status s = engine_->Update(writer, table_, 0, 1, [](void* p) {
    static_cast<Row*>(p)->value = 11;
  });
  EXPECT_TRUE(s.IsAborted());
  ASSERT_TRUE(engine_->Commit(reader).ok());
}

TEST_F(SVEngineTest, ReadCommittedReleasesImmediately) {
  Put(1, 10);
  SVTransaction* reader = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(reader, table_, 0, 1, &row).ok());

  // Short lock already released: a writer proceeds while the reader is open.
  SVTransaction* writer = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(writer, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  ASSERT_TRUE(engine_->Commit(writer).ok());
  ASSERT_TRUE(engine_->Commit(reader).ok());
}

TEST_F(SVEngineTest, UpgradeWithinTransaction) {
  Put(1, 10);
  SVTransaction* t = engine_->Begin(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());  // S
  ASSERT_TRUE(engine_->Update(t, table_, 0, 1, [&](void* p) {  // upgrade to X
                   static_cast<Row*>(p)->value = row.value + 1;
                 }).ok());
  ASSERT_TRUE(engine_->Commit(t).ok());

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Read(check, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 11u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, AbortRestoresBeforeImage) {
  Put(1, 10);
  SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(t, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 999;
                 }).ok());
  engine_->Abort(t);

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(check, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, AbortRelinksDeletedRow) {
  Put(1, 10);
  SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Delete(t, table_, 0, 1).ok());
  engine_->Abort(t);

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{};
  EXPECT_TRUE(engine_->Read(check, table_, 0, 1, &row).ok());
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, AbortUnlinksInsertedRow) {
  SVTransaction* t = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{5, 50};
  ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
  engine_->Abort(t);

  SVTransaction* check = engine_->Begin(IsolationLevel::kReadCommitted);
  EXPECT_TRUE(engine_->Read(check, table_, 0, 5, &row).IsNotFound());
  ASSERT_TRUE(engine_->Commit(check).ok());
}

TEST_F(SVEngineTest, KeyLockCoversPhantoms) {
  // A serializable scan of key K S-locks K's hash-key lock, so inserts of K
  // block until the scanner commits (the paper's free phantom protection).
  SVTransaction* scanner = engine_->Begin(IsolationLevel::kSerializable);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(scanner, table_, 0, 77, nullptr,
                            [&](const void*) {
                              ++seen;
                              return true;
                            })
                  .ok());
  EXPECT_EQ(seen, 0);

  SVTransaction* inserter = engine_->Begin(IsolationLevel::kReadCommitted);
  Row row{77, 1};
  Status s = engine_->Insert(inserter, table_, &row);
  EXPECT_TRUE(s.IsAborted());  // blocked on the key lock until timeout
  ASSERT_TRUE(engine_->Commit(scanner).ok());
}

TEST_F(SVEngineTest, DeadlockBrokenByTimeout) {
  Put(1, 10);
  Put(2, 20);
  Status s1, s2;
  auto crossing = [&](uint64_t first, uint64_t second, Status* out) {
    SVTransaction* t = engine_->Begin(IsolationLevel::kRepeatableRead);
    Row row{};
    Status s = engine_->Read(t, table_, 0, first, &row);
    if (s.IsAborted()) {
      *out = s;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    s = engine_->Update(t, table_, 0, second, [](void* p) {
      static_cast<Row*>(p)->value += 1;
    });
    if (s.IsAborted()) {
      *out = s;
      return;
    }
    *out = engine_->Commit(t);
  };
  std::thread t1([&] { crossing(1, 2, &s1); });
  std::thread t2([&] { crossing(2, 1, &s2); });
  t1.join();
  t2.join();
  // The timeout must break the deadlock: at least one side finishes, and
  // any failure is a lock timeout.
  EXPECT_TRUE(s1.ok() || s2.ok() || s1.IsAborted() || s2.IsAborted());
  if (!s1.ok()) {
    EXPECT_EQ(s1.abort_reason(), AbortReason::kLockTimeout);
  }
  if (!s2.ok()) {
    EXPECT_EQ(s2.abort_reason(), AbortReason::kLockTimeout);
  }
}

constexpr uint64_t kManyKeys = 10000;

TEST_F(SVEngineTest, SerializableReReadsTakeEachLockOnce) {
  const TableId many = LoadRows(kManyKeys);
  const std::set<KeyLock*> touched = LocksOf(many, kManyKeys);
  SVTransaction* t = engine_->Begin(IsolationLevel::kSerializable);
  Row row{};
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t k = 0; k < kManyKeys; ++k) {
      ASSERT_TRUE(engine_->Read(t, many, 0, k, &row).ok()) << k;
      ASSERT_EQ(row.key, k);
    }
  }
  // One shared slot per distinct lock, however often its keys were read.
  EXPECT_EQ(CountReaders(touched, 1), touched.size());
  ASSERT_TRUE(engine_->Commit(t).ok());
  EXPECT_EQ(CountReaders(touched, 0), touched.size());
}

TEST_F(SVEngineTest, FailedUpgradeReleasesEveryLockOnce) {
  for (uint64_t k = 1; k <= 3; ++k) Put(k, 10 * k);
  KeyLock* l1 = engine_->KeyLockFor(table_, 0, 1);
  KeyLock* l2 = engine_->KeyLockFor(table_, 0, 2);
  KeyLock* l3 = engine_->KeyLockFor(table_, 0, 3);
  ASSERT_TRUE(l1 != l2 && l2 != l3 && l1 != l3);

  SVTransaction* t1 = engine_->Begin(IsolationLevel::kRepeatableRead);
  Row row{};
  for (uint64_t k = 1; k <= 3; ++k) {
    ASSERT_TRUE(engine_->Read(t1, table_, 0, k, &row).ok());
  }
  SVTransaction* t2 = engine_->Begin(IsolationLevel::kRepeatableRead);
  ASSERT_TRUE(engine_->Read(t2, table_, 0, 2, &row).ok());
  EXPECT_EQ(l2->readers.load(), 2u);

  // T2's S lock blocks T1's S->X upgrade; the timeout aborts T1, whose
  // shared slot on k2 the failed upgrade already consumed.
  Status s = engine_->Update(t1, table_, 0, 2, [](void* p) {
    static_cast<Row*>(p)->value = 0;
  });
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kLockTimeout);
  EXPECT_EQ(l1->readers.load(), 0u);
  EXPECT_EQ(l3->readers.load(), 0u);
  EXPECT_EQ(l2->readers.load(), 1u);  // T2's
  EXPECT_EQ(l1->writer.load() | l2->writer.load() | l3->writer.load(), 0u);

  ASSERT_TRUE(engine_->Commit(t2).ok());
  EXPECT_EQ(l2->readers.load(), 0u);
}

TEST_F(SVEngineTest, RecycledHandleTakesLocksAfresh) {
  const TableId many = LoadRows(kManyKeys);
  SVTransaction* big = engine_->Begin(IsolationLevel::kSerializable);
  Row row{};
  for (uint64_t k = 0; k < kManyKeys; ++k) {
    ASSERT_TRUE(engine_->Read(big, many, 0, k, &row).ok());
  }
  ASSERT_TRUE(engine_->Commit(big).ok());

  // The pool hands this thread the same handle back, its lock set grown to
  // 10K entries and cleared. Reading a key the big transaction held must
  // really take the lock, not hit a stale "already held" entry.
  constexpr uint64_t kKey = kManyKeys / 2;
  SVTransaction* small = engine_->Begin(IsolationLevel::kRepeatableRead);
  ASSERT_EQ(small, big);
  ASSERT_TRUE(engine_->Read(small, many, 0, kKey, &row).ok());
  EXPECT_EQ(engine_->KeyLockFor(many, 0, kKey)->readers.load(), 1u);

  SVTransaction* writer = engine_->Begin(IsolationLevel::kReadCommitted);
  Status s = engine_->Update(writer, many, 0, kKey, [](void* p) {
    static_cast<Row*>(p)->value += 1;
  });
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kLockTimeout);
  ASSERT_TRUE(engine_->Commit(small).ok());
  EXPECT_EQ(engine_->KeyLockFor(many, 0, kKey)->readers.load(), 0u);
}

}  // namespace
}  // namespace mvstore
