// The single timestamp counter (txn/timestamp.h): the invariants the MV
// hot path leans on. Next() is one fetch_add; Current() is one load. The
// safety property under test throughout: a Current() observation is never
// overtaken -- every Next() that starts after it returns a strictly
// greater value.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "storage/lock_word.h"
#include "txn/timestamp.h"

namespace mvstore {
namespace {

/// Concurrent draws are unique and per-thread monotone, and once every
/// drawer finished the clock reads exactly the largest draw.
TEST(TimestampClockTest, ConcurrentUniqueness) {
  TimestampGenerator gen;
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
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kPer);
  EXPECT_EQ(gen.Current(), max_drawn);
}

/// The begin-timestamp rule: an observed Current() value B is strictly
/// below every timestamp drawn after the observation. A violation here is
/// a transaction committing into an open snapshot's past.
TEST(TimestampClockTest, ObservationNeverOvertaken) {
  TimestampGenerator gen;
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
TEST(TimestampClockTest, FreshnessAfterJoin) {
  TimestampGenerator gen;
  (void)gen.Next();
  Timestamp worker_ts = 0;
  std::thread worker([&] {
    for (int i = 0; i < 100; ++i) worker_ts = gen.Next();
  });
  worker.join();
  // Main's own earlier draw must not hide the worker's draws.
  EXPECT_GE(gen.Current(), worker_ts);
  // And main's next draw lands above them.
  EXPECT_GT(gen.Next(), worker_ts);
}

/// AdvanceTo (recovery) raises the clock to a floor: later draws land
/// strictly above it, or post-recovery commits would collide with replayed
/// history, and a lower floor never moves the clock back.
TEST(TimestampClockTest, AdvanceToRaisesFloor) {
  TimestampGenerator gen;
  Timestamp drawn = gen.Next();
  EXPECT_EQ(drawn, 1u);
  std::thread other([&] { (void)gen.Next(); });
  other.join();
  gen.AdvanceTo(1000);
  EXPECT_GE(gen.Current(), 1000u);
  Timestamp after = gen.Next();
  EXPECT_GT(after, 1000u);
  EXPECT_EQ(gen.Current(), after);
  // AdvanceTo below the clock is a no-op, never a regression.
  gen.AdvanceTo(5);
  EXPECT_EQ(gen.Current(), after);
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
