// Block-batched timestamp allocation (txn/timestamp.h): the invariants the
// MV hot path leans on. Next() hands out per-thread blocks carved off the
// shared cursor; Current() is a plain load of the drawn-timestamp ceiling.
// The safety property under test throughout: a Current() observation is
// never overtaken -- every Next() that starts after it returns a strictly
// greater value, no matter how many partially drawn blocks are outstanding.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "storage/lock_word.h"
#include "txn/timestamp.h"

namespace mvstore {
namespace {

/// Uniqueness must hold for any block size, including the degenerate
/// unbatched configuration and sizes that do not divide the draw count.
TEST(TimestampBatchTest, ConcurrentUniquenessAcrossBlockSizes) {
  for (uint32_t block : {1u, 3u, 16u, 64u}) {
    TimestampGenerator gen(block);
    constexpr int kThreads = 8, kPer = 5000;
    std::vector<std::vector<Timestamp>> drawn(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        drawn[t].reserve(kPer);
        for (int i = 0; i < kPer; ++i) drawn[t].push_back(gen.Next());
      });
    }
    for (auto& th : threads) th.join();
    std::set<Timestamp> all;
    Timestamp max_drawn = 0;
    for (auto& v : drawn) {
      Timestamp prev = 0;
      for (Timestamp t : v) {
        EXPECT_GT(t, prev);  // per-thread monotone
        prev = t;
        if (t > max_drawn) max_drawn = t;
      }
      all.insert(v.begin(), v.end());
    }
    EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPer)
        << "duplicate timestamps at block size " << block;
    // After every drawer finished, the clock reads exactly the max draw.
    EXPECT_EQ(gen.Current(), max_drawn);
  }
}

/// The begin-timestamp rule: an observed Current() value B is strictly
/// below every timestamp drawn after the observation, even though blocks
/// carved before the observation still hold undrawn values (the draw path
/// must abandon them rather than emit one <= B). A violation here is a
/// transaction committing into an open snapshot's past.
TEST(TimestampBatchTest, ObservationNeverOvertaken) {
  TimestampGenerator gen(16);
  constexpr int kDrawers = 4, kObservers = 3, kPer = 20000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDrawers; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) {
        Timestamp before = gen.Current();
        Timestamp t2 = gen.Next();
        if (t2 <= before) failed.store(true);
      }
    });
  }
  for (int t = 0; t < kObservers; ++t) {
    threads.emplace_back([&] {
      Timestamp prev = 0;
      for (int i = 0; i < kPer; ++i) {
        Timestamp now = gen.Current();
        if (now < prev) failed.store(true);  // clock must be monotone
        prev = now;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
}

/// Current() reflects a finished draw immediately: no "committed but not
/// yet observable" window across threads (read-your-writes after a join).
TEST(TimestampBatchTest, FreshnessAfterJoin) {
  TimestampGenerator gen(16);
  (void)gen.Next();  // main thread holds a partially drawn block
  Timestamp worker_ts = 0;
  std::thread worker([&] {
    for (int i = 0; i < 100; ++i) worker_ts = gen.Next();
  });
  worker.join();
  // Main's own outstanding block must not hide the worker's draws.
  EXPECT_GE(gen.Current(), worker_ts);
  // And main's next draw lands above them.
  EXPECT_GT(gen.Next(), worker_ts);
}

/// AdvanceTo (recovery) must defeat outstanding blocks: a block carved
/// before the advance may not emit timestamps at or below the new floor,
/// or post-recovery commits would collide with replayed history.
TEST(TimestampBatchTest, AdvanceToRetiresOutstandingBlocks) {
  TimestampGenerator gen(16);
  Timestamp drawn = gen.Next();  // carves block [1..16] on this thread
  EXPECT_EQ(drawn, 1u);
  std::thread other([&] { (void)gen.Next(); });  // second outstanding block
  other.join();
  gen.AdvanceTo(1000);
  EXPECT_GE(gen.Current(), 1000u);
  Timestamp after = gen.Next();  // the stale [2..16] remainder is abandoned
  EXPECT_GT(after, 1000u);
  EXPECT_EQ(gen.Current(), after);
  // AdvanceTo below the clock is a no-op, never a regression.
  gen.AdvanceTo(5);
  EXPECT_EQ(gen.Current(), after);
}

/// Slots are recycled when threads exit: churning many
/// short-lived threads through one generator must reuse a bounded set of
/// slots, not grow the high-water mark per thread.
TEST(TimestampBatchTest, SlotRecyclingUnderThreadChurn) {
  TimestampGenerator gen(16);
  std::set<Timestamp> all;
  for (int i = 0; i < 200; ++i) {
    std::vector<Timestamp> out(2);
    std::thread t([&] {
      out[0] = gen.Next();
      out[1] = gen.Next();
    });
    t.join();
    all.insert(out.begin(), out.end());
  }
  EXPECT_EQ(all.size(), 400u);  // unique across recycled slots
  EXPECT_LE(gen.UsedSlots(), 4u);  // sequential churn reuses one slot
}

/// Transaction IDs mask to 54 bits and skip the two reserved encodings
/// (0 and kNoWriter). Drive the raw counter across the wrap boundary.
TEST(TxnIdBatchTest, WrapSkipsReservedEncodings) {
  // Position so the next block straddles kNoWriter (= mask) and 0.
  TxnIdGenerator gen(lockword::kNoWriter - 3);
  std::set<TxnId> seen;
  for (int i = 0; i < 2 * static_cast<int>(TxnIdGenerator::kBlockSize); ++i) {
    TxnId id = gen.Next();
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, lockword::kNoWriter);
    EXPECT_LE(id, kMaxTxnId);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
  }
}

/// Concurrent ID draws are unique (block handout is the only shared step).
TEST(TxnIdBatchTest, ConcurrentUniqueness) {
  TxnIdGenerator gen;
  constexpr int kThreads = 8, kPer = 5000;
  std::vector<std::vector<TxnId>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      drawn[t].reserve(kPer);
      for (int i = 0; i < kPer; ++i) drawn[t].push_back(gen.Next());
    });
  }
  for (auto& th : threads) th.join();
  std::set<TxnId> all;
  for (auto& v : drawn) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPer);
}

}  // namespace
}  // namespace mvstore
