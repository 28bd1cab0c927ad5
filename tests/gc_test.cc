// Garbage collection: watermark computation, deferred reclamation of
// superseded versions, immediate reclamation of aborted versions, and
// cooperative draining (paper Section 2.3).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cc/mv_engine.h"

namespace mvstore {
namespace {

struct Row {
  uint64_t key;
  uint64_t value;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

class GcTest : public ::testing::Test {
 protected:
  GcTest() { MakeEngine(/*cooperative_gc_budget=*/0); }

  /// Budget 0 disables inline draining too.
  void MakeEngine(uint32_t cooperative_gc_budget) {
    MVEngineOptions opts;
    opts.log_mode = LogMode::kDisabled;
    opts.gc_interval_us = 0;  // manual control: no background thread
    opts.deadlock_interval_us = 0;
    opts.cooperative_gc_budget = cooperative_gc_budget;
    engine_ = std::make_unique<MVEngine>(opts);
    TableDef def;
    def.name = "rows";
    def.payload_size = sizeof(Row);
    def.indexes.push_back(IndexDef{&RowKey, 256, true});
    table_ = engine_->CreateTable(def);
  }

  void Put(uint64_t key, uint64_t value) {
    Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
    Row row{key, value};
    ASSERT_TRUE(engine_->Insert(t, table_, &row).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  void UpdateRow(uint64_t key, uint64_t value) {
    Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
    ASSERT_TRUE(engine_->Update(t, table_, 0, key, [value](void* p) {
                     static_cast<Row*>(p)->value = value;
                   }).ok());
    ASSERT_TRUE(engine_->Commit(t).ok());
  }

  uint64_t ChainLength(uint64_t key) {
    uint64_t n = 0;
    engine_->table(table_).index(0).ScanBucket(key, [&](Version* v) {
      if (engine_->table(table_).index(0).KeyOf(v) == key) ++n;
      return true;
    });
    return n;
  }

  /// `threads` threads each commit `updates` updates to their own row and
  /// exit; RunOnce must then reclaim every version they superseded.
  void UpdateOwnRowsOnThreadsThenRunOnce(uint32_t threads, uint64_t updates) {
    for (uint64_t k = 0; k < threads; ++k) Put(k, 0);
    RunThreads(threads, [&](uint32_t k) {
      for (uint64_t i = 1; i <= updates; ++i) UpdateRow(k, i);
    });
    EXPECT_EQ(engine_->gc().PendingCount(), threads * updates);

    engine_->gc().RunOnce();
    for (uint64_t k = 0; k < threads; ++k) EXPECT_EQ(ChainLength(k), 1u);
    EXPECT_EQ(engine_->gc().PendingCount(), 0u);
  }

  /// Runs `body(i)` on `n` threads at once and joins them.
  template <typename Body>
  static void RunThreads(uint32_t n, Body body) {
    std::vector<std::thread> threads;
    for (uint32_t i = 0; i < n; ++i) threads.emplace_back(body, i);
    for (auto& t : threads) t.join();
  }

  std::unique_ptr<MVEngine> engine_;
  TableId table_ = 0;
};

TEST_F(GcTest, SupersededVersionsCollected) {
  Put(1, 0);
  for (uint64_t i = 1; i <= 10; ++i) UpdateRow(1, i);
  EXPECT_EQ(ChainLength(1), 11u);  // original + 10 updates
  EXPECT_EQ(engine_->gc().PendingCount(), 10u);

  engine_->gc().RunOnce();  // no active txns: watermark passes everything
  EXPECT_EQ(ChainLength(1), 1u);
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
  EXPECT_EQ(engine_->stats().Get(Stat::kVersionsCollected), 10u);

  // The surviving version is the latest.
  Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
  Row row{};
  ASSERT_TRUE(engine_->Read(t, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 10u);
  ASSERT_TRUE(engine_->Commit(t).ok());
}

TEST_F(GcTest, ActiveSnapshotBlocksReclamation) {
  Put(1, 0);
  // An open snapshot transaction pins its begin time.
  Transaction* pin = engine_->Begin(IsolationLevel::kSnapshot, false);
  Row row{};
  ASSERT_TRUE(engine_->Read(pin, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 0u);

  UpdateRow(1, 1);
  UpdateRow(1, 2);
  engine_->gc().RunOnce();
  // The versions superseded after `pin` began must survive; only version 0's
  // predecessors (none) could go. Chain: v0, v1, v2 all present.
  EXPECT_EQ(ChainLength(1), 3u);

  // The pinned snapshot still reads its version.
  ASSERT_TRUE(engine_->Read(pin, table_, 0, 1, &row).ok());
  EXPECT_EQ(row.value, 0u);
  ASSERT_TRUE(engine_->Commit(pin).ok());

  engine_->gc().RunOnce();
  EXPECT_EQ(ChainLength(1), 1u);
}

TEST_F(GcTest, AbortedVersionsCollectedImmediately) {
  Put(1, 0);
  Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine_->Update(t, table_, 0, 1, [](void* p) {
                   static_cast<Row*>(p)->value = 99;
                 }).ok());
  engine_->Abort(t);
  EXPECT_EQ(ChainLength(1), 2u);  // aborted new version still linked

  engine_->gc().RunOnce();
  EXPECT_EQ(ChainLength(1), 1u);  // reclaimed without any watermark wait
}

TEST_F(GcTest, DeletedRowFullyReclaimed) {
  Put(1, 0);
  Transaction* t = engine_->Begin(IsolationLevel::kReadCommitted, false);
  ASSERT_TRUE(engine_->Delete(t, table_, 0, 1).ok());
  ASSERT_TRUE(engine_->Commit(t).ok());
  engine_->gc().RunOnce();
  EXPECT_EQ(ChainLength(1), 0u);
}

TEST_F(GcTest, CooperateDrainsWithBudget) {
  Put(1, 0);
  for (uint64_t i = 1; i <= 32; ++i) UpdateRow(1, i);
  uint64_t before = engine_->gc().PendingCount();
  EXPECT_EQ(before, 32u);
  uint32_t drained = 0;
  for (int i = 0; i < 64 && drained < 32; ++i) {
    drained += engine_->gc().Cooperate(4);
  }
  EXPECT_EQ(drained, 32u);
  EXPECT_EQ(ChainLength(1), 1u);
}

TEST_F(GcTest, WatermarkIsMinActiveBegin) {
  Transaction* t1 = engine_->Begin(IsolationLevel::kSnapshot, false);
  Timestamp b1 = t1->begin_ts.load();
  Transaction* t2 = engine_->Begin(IsolationLevel::kSnapshot, false);
  EXPECT_EQ(engine_->gc().Watermark(/*now=*/1 << 20), b1);
  ASSERT_TRUE(engine_->Commit(t1).ok());
  EXPECT_EQ(engine_->gc().Watermark(1 << 20), t2->begin_ts.load());
  ASSERT_TRUE(engine_->Commit(t2).ok());
  EXPECT_EQ(engine_->gc().Watermark(1 << 20), Timestamp{1} << 20);
}

TEST_F(GcTest, HeavyChurnEventuallyBounded) {
  Put(1, 0);
  for (int round = 0; round < 20; ++round) {
    for (uint64_t i = 0; i < 16; ++i) UpdateRow(1, i);
    engine_->gc().RunOnce();
  }
  EXPECT_EQ(ChainLength(1), 1u);
  EXPECT_EQ(engine_->gc().PendingCount(), 0u);
}

// Versions retired by threads that have since exited stay in those threads'
// shards; with no background thread, RunOnce is what reclaims them.
TEST_F(GcTest, RunOnceDrainsShardsOfExitedThreads) {
  UpdateOwnRowsOnThreadsThenRunOnce(4, 64);
}

// Threads beyond kShards share shards; the per-shard counts stay exact.
TEST_F(GcTest, MoreThreadsThanShardsShareShards) {
  UpdateOwnRowsOnThreadsThenRunOnce(GarbageCollector::kShards + 4, 32);
}

// With the background thread off, each committing thread drains its own
// backlog, so the total backlog stays small instead of growing with the run.
// A version waits for the cached watermark (refreshed every ~200us), so each
// thread paces its commits to >= 10us: a refresh window then holds <= ~20 of
// its commits, and its own backlog stays under that plus one budget. The
// median sample is checked, not the peak: a thread descheduled inside a
// transaction pins the watermark, so isolated samples can spike.
TEST_F(GcTest, EachThreadDrainsItsOwnBacklog) {
  MakeEngine(/*cooperative_gc_budget=*/16);
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kTxns = 20000;
  constexpr auto kPace = std::chrono::microseconds(10);
  for (uint64_t k = 0; k < kThreads; ++k) Put(k, 0);
  std::vector<std::vector<uint64_t>> samples(kThreads);
  RunThreads(kThreads, [&](uint32_t k) {
    samples[k].reserve(kTxns);
    for (uint64_t i = 1; i <= kTxns; ++i) {
      const auto start = std::chrono::steady_clock::now();
      UpdateRow(k, i);
      samples[k].push_back(engine_->gc().PendingCount());
      while (std::chrono::steady_clock::now() - start < kPace) {
      }
    }
  });
  std::vector<uint64_t> all;
  for (const auto& s : samples) all.insert(all.end(), s.begin(), s.end());
  std::nth_element(all.begin(), all.begin() + all.size() / 2, all.end());
  EXPECT_LT(all[all.size() / 2], kThreads * 64u);
}

// RunOnce's contract under concurrent Cooperate: when it returns, every
// version any drain had popped is unlinked, so each chain is back to one.
// Each round, the workers wait out the cached-watermark refresh (~200us) and
// then pop their whole shard in one batch while RunOnce runs; a RunOnce that
// did not wait for in-flight drains would find the shards empty and return
// while a worker is still unlinking.
TEST_F(GcTest, RunOnceWaitsForConcurrentCooperate) {
  constexpr uint32_t kThreads = 4;
  constexpr int kRounds = 50;
  constexpr uint64_t kUpdates = 64;
  for (uint64_t k = 0; k < kThreads; ++k) Put(k, 0);
  std::atomic<int> round{0};
  std::atomic<uint32_t> updated{0};
  std::vector<std::thread> threads;
  for (uint64_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      for (int r = 0; r < kRounds; ++r) {
        while (round.load() != r) std::this_thread::yield();
        for (uint64_t i = 1; i <= kUpdates; ++i) UpdateRow(k, i);
        updated.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        while (round.load() == r) engine_->gc().Cooperate(kUpdates);
      }
    });
  }
  for (int r = 0; r < kRounds; ++r) {
    while (updated.load() != kThreads * (r + 1)) std::this_thread::yield();
    // Sweep RunOnce's start across the workers' first pops.
    std::this_thread::sleep_for(std::chrono::microseconds(250 + 25 * (r % 5)));
    engine_->gc().RunOnce();
    for (uint64_t k = 0; k < kThreads; ++k) {
      EXPECT_EQ(ChainLength(k), 1u) << "round " << r << " row " << k;
    }
    EXPECT_EQ(engine_->gc().PendingCount(), 0u);
    round.store(r + 1);
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace mvstore
