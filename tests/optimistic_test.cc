// MV/O-specific behavior (paper Section 3): backward validation of reads,
// phantom detection by scan repetition (the Figure 3 scenarios), isolation-
// level cost structure, and commit-dependency flows through the engine.
#include <gtest/gtest.h>

#include <thread>

#include "cc/mv_engine.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class OptimisticTest : public ::testing::Test {
 protected:
  OptimisticTest() {
    MVEngineOptions opts;
    opts.log_mode = LogMode::kDisabled;
    engine_ = std::make_unique<MVEngine>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = engine_->CreateTable(def);
  }

  Transaction* BeginOpt(IsolationLevel iso) {
    Transaction* txn = engine_->Begin(iso, /*pessimistic=*/false);
    EXPECT_FALSE(txn->pessimistic);
    EXPECT_FALSE(txn->read_only);
    return txn;
  }

  void Put(uint64_t key, uint64_t value) {
    Transaction* t = BeginOpt(IsolationLevel::kReadCommitted);
    Row row{key, value};
    ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  Status UpdateCommitted(uint64_t key, uint64_t value) {
    Transaction* t = BeginOpt(IsolationLevel::kReadCommitted);
    Status s = engine_->Update(t, table_, 0, key, [value](void* p) {
      static_cast<Row*>(p)->value = value;
    });
    if (!s.ok()) return s;
    return engine_->Commit(t);
  }

  Status DeleteCommitted(uint64_t key) {
    Transaction* t = BeginOpt(IsolationLevel::kReadCommitted);
    Status s = engine_->Delete(t, table_, 0, key);
    if (!s.ok()) return s;
    return engine_->Commit(t);
  }

  std::unique_ptr<MVEngine> engine_;
  TableId table_ = 0;
};

/// Figure 3, V1: visible at start and end -> passes read validation and
/// phantom detection.
TEST_F(OptimisticTest, Fig3V1StableReadCommits) {
  Put(1, 10);
  Transaction* t = BeginOpt(IsolationLevel::kSerializable);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_TRUE(engine_->Commit(t).ok());
}

/// Figure 3, V2: visible at start, replaced during T -> read validation
/// fails under RR/SR.
TEST_F(OptimisticTest, Fig3V2UpdatedReadFailsValidation) {
  Put(1, 10);
  Transaction* t = BeginOpt(IsolationLevel::kRepeatableRead);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  ASSERT_TRUE(UpdateCommitted(1, 20).ok());  // concurrent committed update
  Status s = engine_->Commit(t);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kReadValidation);
}

/// Same scenario, but a deletion instead of an update.
TEST_F(OptimisticTest, Fig3V2DeletedReadFailsValidation) {
  Put(1, 10);
  Transaction* t = BeginOpt(IsolationLevel::kSerializable);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  ASSERT_TRUE(DeleteCommitted(1).ok());
  Status s = engine_->Commit(t);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kReadValidation);
}

/// Figure 3, V3: created *and* deleted during T's lifetime -> not visible at
/// either endpoint, so neither read validation nor phantom detection fires.
TEST_F(OptimisticTest, Fig3V3TransientVersionHarmless) {
  Transaction* t = BeginOpt(IsolationLevel::kSerializable);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(t, table_, 0, 5, nullptr, [&](const void*) {
                   ++seen;
                   return true;
                 }).ok());
  EXPECT_EQ(seen, 0);

  Put(5, 50);                       // created during T
  ASSERT_TRUE(DeleteCommitted(5).ok());  // and deleted during T
  EXPECT_TRUE(engine_->Commit(t).ok());
}

/// Figure 3, V4: created during T and visible at the end -> phantom; the
/// serializable scan repetition catches it.
TEST_F(OptimisticTest, Fig3V4PhantomFailsValidation) {
  Transaction* t = BeginOpt(IsolationLevel::kSerializable);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(t, table_, 0, 5, nullptr, [&](const void*) {
                   ++seen;
                   return true;
                 }).ok());
  EXPECT_EQ(seen, 0);

  Put(5, 50);  // phantom
  Status s = engine_->Commit(t);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kPhantom);
}

/// Repeatable read does NOT repeat scans: V4 is admitted (phantoms allowed).
TEST_F(OptimisticTest, RepeatableReadAdmitsPhantom) {
  Transaction* t = BeginOpt(IsolationLevel::kRepeatableRead);
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(t, table_, 0, 5, nullptr, [&](const void*) {
                   ++seen;
                   return true;
                 }).ok());
  Put(5, 50);
  EXPECT_TRUE(engine_->Commit(t).ok());  // no scan set -> no phantom check
}

/// Read Committed and Snapshot skip validation entirely: a stale read set
/// never aborts the transaction.
TEST_F(OptimisticTest, LowerIsolationSkipsValidation) {
  Put(1, 10);
  for (IsolationLevel iso :
       {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshot}) {
    Transaction* t = BeginOpt(iso);
    Row row{};
    ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
    ASSERT_TRUE(UpdateCommitted(1, row.value + 1).ok());
    EXPECT_TRUE(engine_->Commit(t).ok()) << IsolationLevelName(iso);
  }
}

/// Snapshot isolation reads as of the transaction's begin time.
TEST_F(OptimisticTest, SnapshotReadsBeginTime) {
  Put(1, 10);
  Transaction* t = BeginOpt(IsolationLevel::kSnapshot);
  ASSERT_TRUE(UpdateCommitted(1, 99).ok());
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);  // pre-update snapshot
  EXPECT_TRUE(engine_->Commit(t).ok());
}

/// Read Committed reads the latest committed version at each read.
TEST_F(OptimisticTest, ReadCommittedReadsCurrentTime) {
  Put(1, 10);
  Transaction* t = BeginOpt(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);
  ASSERT_TRUE(UpdateCommitted(1, 99).ok());
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 99u);
  EXPECT_TRUE(engine_->Commit(t).ok());
}

/// First-writer-wins: a write-write conflict aborts the second writer
/// immediately (Section 2.6).
TEST_F(OptimisticTest, FirstWriterWins) {
  Put(1, 10);
  Transaction* t1 = BeginOpt(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(t1, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());

  Transaction* t2 = BeginOpt(IsolationLevel::kReadCommitted);
  Status s = engine_->Update(t2, table_, 0, 1, [](void* p) {
    static_cast<Row*>(p)->value = 12;
  });
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kWriteWriteConflict);

  ASSERT_TRUE(engine_->Commit(t1).ok());
  EXPECT_EQ(engine_->stats().Get(Stat::kAbortWriteConflict), 1u);
}

/// After the first writer aborts, the version is updatable again.
TEST_F(OptimisticTest, AbortedWriterReleasesVersion) {
  Put(1, 10);
  Transaction* t1 = BeginOpt(IsolationLevel::kReadCommitted);
  ASSERT_TRUE(engine_->Update(t1, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 11;
                 }).ok());
  engine_->Abort(t1);

  EXPECT_TRUE(UpdateCommitted(1, 12).ok());
  Transaction* t = BeginOpt(IsolationLevel::kReadCommitted);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 12u);
  ASSERT_TRUE(engine_->Commit(t).ok());
}

/// Speculative read of a preparing transaction's version, resolved by the
/// provider committing: the dependent commits too. Runs at Snapshot
/// isolation -- Read Committed never speculates (visibility.h), so a
/// snapshot reader whose begin timestamp lands inside the writer's
/// Preparing window is what exercises the dependency path.
TEST_F(OptimisticTest, CommitDependencyResolvedByCommit) {
  Put(1, 10);
  // t1 updates and stalls in Preparing by holding a commit dependency of its
  // own? Simpler: drive the interleaving with threads -- t1 commits while t2
  // reads concurrently. Here we exercise the full path statistically.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) {
      UpdateCommitted(1, 42);
    }
  });
  uint64_t reads = 0;
  for (int i = 0; i < 2000; ++i) {
    Transaction* t = BeginOpt(IsolationLevel::kSnapshot);
    Row row{};
    Status s = engine_->Read(t, table_, 0, 1, &row);
    if (!s.IsAborted()) {
      if (engine_->Commit(t).ok()) ++reads;
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(reads, 0u);
}

/// Write validation interplay: serializable read-modify-write on two keys
/// with interleaved foreign update -> exactly one outcome is serializable.
TEST_F(OptimisticTest, SerializableReadModifyWrite) {
  Put(1, 10);
  Put(2, 20);
  Transaction* t = BeginOpt(IsolationLevel::kSerializable);
  Row a{}, b{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &a).ok());
  ASSERT_TRUE(engine_->Read(t, table_, 0, 2, &b).ok());
  ASSERT_TRUE(engine_->Update(t, table_, 0, 1, [&](void* p) {
                   static_cast<Row*>(p)->value = a.value + b.value;
                 }).ok());
  ASSERT_TRUE(engine_->Commit(t).ok());

  Transaction* check = BeginOpt(IsolationLevel::kReadCommitted);
  Row out{};
  ASSERT_TRUE(engine_->Read(check, table_, 0, 1, &out).ok());
  EXPECT_EQ(out.value, 30u);
  ASSERT_TRUE(engine_->Commit(check).ok());
}

/// A transaction that only reads commits without validation cost at RC/SI
/// but still validates under RR/SR -- just verifying all paths commit when
/// there is no interference.
TEST_F(OptimisticTest, AllIsolationLevelsCommitQuietly) {
  Put(1, 10);
  for (IsolationLevel iso :
       {IsolationLevel::kReadCommitted, IsolationLevel::kSnapshot,
        IsolationLevel::kRepeatableRead, IsolationLevel::kSerializable}) {
    Transaction* t = BeginOpt(iso);
    Row row{};
    ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
    EXPECT_TRUE(engine_->Commit(t).ok()) << IsolationLevelName(iso);
  }
}

/// The scan set must also catch phantoms that satisfy only the residual
/// predicate boundary.
TEST_F(OptimisticTest, PhantomDetectionHonorsResidualPredicate) {
  Transaction* t = BeginOpt(IsolationLevel::kSerializable);
  auto residual = [](const void* p) {
    return static_cast<const Row*>(p)->value >= 100;
  };
  int seen = 0;
  ASSERT_TRUE(engine_->Scan(t, table_, 0, 7, residual, [&](const void*) {
                   ++seen;
                   return true;
                 }).ok());
  Put(7, 50);  // matches key but NOT the residual -> not a phantom
  EXPECT_TRUE(engine_->Commit(t).ok());

  Transaction* t2 = BeginOpt(IsolationLevel::kSerializable);
  ASSERT_TRUE(engine_->Scan(t2, table_, 0, 8, residual, [&](const void*) {
                   return true;
                 }).ok());
  Put(8, 150);  // matches key AND residual -> phantom
  Status s = engine_->Commit(t2);
  ASSERT_TRUE(s.IsAborted());
  EXPECT_EQ(s.abort_reason(), AbortReason::kPhantom);
}

}  // namespace
}  // namespace mvstore
