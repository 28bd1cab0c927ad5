#include "util/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/thread_slot.h"

namespace mvstore {
namespace {

struct Counted {
  explicit Counted(std::atomic<int>& counter) : counter(counter) {
    counter.fetch_add(1);
  }
  ~Counted() { counter.fetch_sub(1); }
  std::atomic<int>& counter;
};

TEST(EpochTest, RetiredObjectFreedAfterAdvance) {
  EpochManager em;
  std::atomic<int> live{0};
  em.RetireObject(new Counted(live));
  EXPECT_EQ(live.load(), 1);
  em.TryAdvanceAndReclaim();
  em.TryAdvanceAndReclaim();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.PendingCount(), 0u);
}

TEST(EpochTest, GuardBlocksReclamation) {
  EpochManager em;
  std::atomic<int> live{0};
  std::atomic<bool> release{false};
  std::atomic<bool> entered{false};

  std::thread reader([&] {
    EpochGuard guard(em);
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!entered.load()) std::this_thread::yield();

  em.RetireObject(new Counted(live));
  em.TryAdvanceAndReclaim();
  em.TryAdvanceAndReclaim();
  // The reader entered before retirement, so the object must survive.
  EXPECT_EQ(live.load(), 1);

  release.store(true);
  reader.join();
  em.TryAdvanceAndReclaim();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, NestedGuardsShareSlot) {
  EpochManager em;
  std::atomic<int> live{0};
  {
    EpochGuard outer(em);
    {
      EpochGuard inner(em);
      em.RetireObject(new Counted(live));
    }
    em.TryAdvanceAndReclaim();
    em.TryAdvanceAndReclaim();
    // Outer guard still active: object was retired while we might hold it.
    // (We entered before retirement, so it must survive.)
    EXPECT_EQ(live.load(), 1);
  }
  em.TryAdvanceAndReclaim();
  EXPECT_EQ(live.load(), 0);
}

TEST(EpochTest, DrainAllFreesEverything) {
  EpochManager em;
  std::atomic<int> live{0};
  for (int i = 0; i < 100; ++i) em.RetireObject(new Counted(live));
  em.DrainAll();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.PendingCount(), 0u);
}

TEST(EpochTest, EpochAdvances) {
  EpochManager em;
  uint64_t e0 = em.CurrentEpoch();
  em.TryAdvanceAndReclaim();
  EXPECT_GT(em.CurrentEpoch(), e0);
}

/// Thread churn: slots must be recycled when threads exit, not burned one
/// per thread -- kMaxThreadSlots (512) short-lived threads used to exhaust
/// the slot table for the life of the manager, silently degrading every
/// later guard to the slotless fallback path.
TEST(EpochTest, SlotReuseUnderThreadChurn) {
  EpochManager em;
  std::atomic<int> live{0};
  constexpr int kChurn = 1000;
  static_assert(kChurn > static_cast<int>(kMaxThreadSlots),
                "churn must exceed the slot table to prove reuse");
  for (int i = 0; i < kChurn; ++i) {
    std::thread t([&] {
      EpochGuard guard(em);
      em.RetireObject(new Counted(live));
    });
    t.join();
  }
  // Sequential churn: each thread released its slot on exit, so the next
  // one drew it again. A handful of slots, not a thousand.
  EXPECT_LE(em.UsedSlots(), 4u);
  em.DrainAll();
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(em.PendingCount(), 0u);
}

TEST(EpochTest, ConcurrentReadersAndRetirers) {
  EpochManager em;
  std::atomic<int> live{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        EpochGuard guard(em);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) em.RetireObject(new Counted(live));
    });
  }
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  stop.store(true);
  for (int t = 0; t < 4; ++t) threads[t].join();

  em.TryAdvanceAndReclaim();
  em.DrainAll();
  EXPECT_EQ(live.load(), 0);
}

}  // namespace
}  // namespace mvstore
