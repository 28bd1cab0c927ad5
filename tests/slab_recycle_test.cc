// Memory-subsystem tests: slab allocation, magazine recycling, transaction
// pooling, and -- the part that matters for correctness -- the interaction
// between slot recycling and epoch-based reclamation: a recycled version
// slot must never be handed out while a concurrent lock-free scan could
// still dereference the old contents, and Version::Create must fully
// re-initialize a recycled slot.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "cc/mv_engine.h"
#include "common/random.h"
#include "core/database.h"
#include "mem/object_pool.h"
#include "mem/slab_allocator.h"
#include "obs/histogram.h"
#include "txn/timestamp.h"
#include "util/epoch.h"
#include "util/thread_slot.h"

namespace mvstore {
namespace {

/// ---------------------------------------------------------------------------
/// SlabAllocator unit tests
/// ---------------------------------------------------------------------------

TEST(SlabAllocatorTest, RecyclesFreedSlots) {
  StatsCollector stats;
  SlabAllocator slab(48, &stats);
  EXPECT_GE(slab.slot_size(), 48u);
  EXPECT_EQ(slab.slot_size() % SlabAllocator::kSlotAlign, 0u);

  // Allocate a batch, remember the pointers, free them all.
  std::vector<void*> first;
  for (int i = 0; i < 200; ++i) first.push_back(slab.Allocate());
  std::set<void*> first_set(first.begin(), first.end());
  EXPECT_EQ(first_set.size(), first.size());  // all distinct
  for (void* p : first) slab.Free(p);

  // The next batch must come out of the recycled set, not new chunks. (A
  // few slots may be magazine leftovers carved but never handed out in the
  // first round, so require "almost all" rather than every one.)
  uint64_t chunks_before = slab.chunks_allocated();
  int recycled = 0;
  for (int i = 0; i < 200; ++i) {
    if (first_set.count(slab.Allocate())) ++recycled;
  }
  EXPECT_GE(recycled,
            200 - static_cast<int>(SlabAllocator::kMagazineCapacity));
  EXPECT_EQ(slab.chunks_allocated(), chunks_before);
}

TEST(SlabAllocatorTest, SlotsAreAligned) {
  SlabAllocator slab(24);
  for (int i = 0; i < 100; ++i) {
    auto addr = reinterpret_cast<uintptr_t>(slab.Allocate());
    EXPECT_EQ(addr % SlabAllocator::kSlotAlign, 0u);
  }
}

TEST(SlabAllocatorTest, CrossThreadFreeMigratesThroughSpine) {
  SlabAllocator slab(64);
  // Allocate enough on this thread to overflow a magazine several times.
  constexpr int kSlots = 4 * SlabAllocator::kMagazineCapacity;
  std::vector<void*> slots;
  for (int i = 0; i < kSlots; ++i) slots.push_back(slab.Allocate());

  // Free them all from another thread (GC / epoch reclamation shape).
  std::thread freer([&] {
    for (void* p : slots) slab.Free(p);
  });
  freer.join();

  // This thread's magazine is empty, so reallocations refill from the spine
  // where the freer's overflow landed; at least some pointers must recycle.
  std::set<void*> old_set(slots.begin(), slots.end());
  int recycled = 0;
  for (int i = 0; i < kSlots; ++i) {
    if (old_set.count(slab.Allocate())) ++recycled;
  }
  EXPECT_GT(recycled, 0);
}

TEST(SlabAllocatorTest, ExportsCounters) {
  StatsCollector stats;
  SlabAllocator slab(128, &stats);
  std::vector<void*> slots;
  for (int i = 0; i < 3000; ++i) slots.push_back(slab.Allocate());
  for (void* p : slots) slab.Free(p);
  for (int i = 0; i < 3000; ++i) slab.Allocate();

  EXPECT_GT(stats.Get(Stat::kSlabChunksAllocated), 0u);
  EXPECT_EQ(stats.Get(Stat::kSlabChunksAllocated), slab.chunks_allocated());
  EXPECT_GT(stats.Get(Stat::kSlabMagazineHits), 0u);
  EXPECT_GT(stats.Get(Stat::kSlabSlotsRecycled), 0u);
  EXPECT_GT(stats.Get(Stat::kSlabMagazineMisses), 0u);
}

TEST(SlabAllocatorTest, CountsAreExactAfterThreadExit) {
  StatsCollector stats;
  SlabAllocator slab(128, &stats);
  // A handful of hot-path events, all after the thread's only slow path (the
  // first Allocate refills the magazine). Each one must be counted exactly
  // once the thread has exited, while the allocator is still alive.
  std::thread worker([&slab] {
    void* slots[8];
    for (int i = 0; i < 8; ++i) slots[i] = slab.Allocate();
    for (int i = 0; i < 8; ++i) slab.Free(slots[i]);
  });
  worker.join();
  // First Allocate is the refilling miss, the next 7 pop from the magazine.
  EXPECT_EQ(stats.Get(Stat::kSlabMagazineHits), 7u);
  EXPECT_EQ(stats.Get(Stat::kSlabSlotsRecycled), 8u);
}

/// ---------------------------------------------------------------------------
/// Version placement-reinitialization on a recycled slot
/// ---------------------------------------------------------------------------

struct Row {
  uint64_t key;
  uint64_t a;
  uint64_t b;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

TEST(SlabRecycleTest, VersionCreateFullyReinitializesRecycledSlot) {
  TableDef def;
  def.name = "t";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 64, true});
  def.indexes.push_back(IndexDef{&RowKey, 64, false});
  Table table(0, def, TableMemoryOptions{/*use_slab=*/true, nullptr});
  ASSERT_NE(table.slab(), nullptr);

  Row row{7, 1, 2};
  Version* v = table.AllocateVersion(&row);
  // Scribble over every header field a recycled slot could leak.
  v->begin.store(0xDEADBEEF, std::memory_order_relaxed);
  v->end.store(0xFEEDFACE, std::memory_order_relaxed);
  v->Next(0).store(reinterpret_cast<Version*>(0x1234),
                   std::memory_order_relaxed);
  v->Next(1).store(reinterpret_cast<Version*>(0x5678),
                   std::memory_order_relaxed);
  std::memset(v->Payload(), 0xAB, sizeof(Row));
  table.FreeUnpublishedVersion(v);

  // The very next allocation reuses the magazine top -- the same slot.
  Row row2{9, 3, 4};
  Version* v2 = table.AllocateVersion(&row2);
  ASSERT_EQ(static_cast<void*>(v2), static_cast<void*>(v));
  EXPECT_EQ(beginword::TimestampOf(v2->begin.load()), kInfinity);
  EXPECT_EQ(lockword::TimestampOf(v2->end.load()), kInfinity);
  EXPECT_EQ(v2->Next(0).load(), nullptr);
  EXPECT_EQ(v2->Next(1).load(), nullptr);
  EXPECT_EQ(v2->num_indexes(), 2u);
  EXPECT_EQ(v2->payload_size(), sizeof(Row));
  EXPECT_EQ(std::memcmp(v2->Payload(), &row2, sizeof(Row)), 0);
  table.FreeUnpublishedVersion(v2);
}

/// ---------------------------------------------------------------------------
/// ObjectPool unit tests
/// ---------------------------------------------------------------------------

struct PooledThing {
  PooledThing() = default;
  explicit PooledThing(int v) : value(v) { payload.assign(16, v); }
  void Reset(int v) {
    value = v;
    payload.clear();
  }
  int value = 0;
  std::vector<int> payload;
};

TEST(ObjectPoolTest, RecyclesAndResets) {
  ObjectPool<PooledThing> pool(/*enabled=*/true);
  PooledThing* a = pool.Acquire(1);
  a->payload.assign(100, 1);
  size_t cap = a->payload.capacity();
  pool.Release(a);
  PooledThing* b = pool.Acquire(2);
  EXPECT_EQ(b, a);  // recycled
  EXPECT_EQ(b->value, 2);
  EXPECT_TRUE(b->payload.empty());
  EXPECT_GE(b->payload.capacity(), cap);  // capacity survived the recycle
  pool.Release(b);
}

TEST(ObjectPoolTest, DisabledModeUsesHeap) {
  ObjectPool<PooledThing> pool(/*enabled=*/false);
  PooledThing* a = pool.Acquire(1);
  EXPECT_EQ(a->value, 1);
  pool.Release(a);  // must not leak (ASan would flag it)
}

/// ---------------------------------------------------------------------------
/// Per-thread state across thread exit
/// ---------------------------------------------------------------------------

/// Threads that run one after another draw the same thread slot, so each
/// inherits the pool cache and slab magazine its predecessor left behind
/// instead of stranding them until the owner dies.
TEST(ThreadSlotTest, ThreadChurnDoesNotStrandPooledMemory) {
  StatsCollector stats;
  ObjectPool<PooledThing> pool(/*enabled=*/true, &stats);
  SlabAllocator slab(128, &stats);
  for (int i = 0; i < 200; ++i) {
    std::thread t([&] {
      pool.Release(pool.Acquire(i));
      slab.Free(slab.Allocate());
    });
    t.join();
  }
  EXPECT_LE(stats.Get(Stat::kTxnPoolMisses), 2u);
  EXPECT_EQ(stats.Get(Stat::kTxnPoolHits) + stats.Get(Stat::kTxnPoolMisses),
            200u);
  EXPECT_EQ(slab.chunks_allocated(), 1u);
}

struct TeardownOwners {
  StatsCollector stats;
  obs::LatencyHistograms hists;
  EpochManager epoch;
  TimestampGenerator ts;
  ObjectPool<PooledThing> pool{/*enabled=*/true, &stats};
  SlabAllocator slab{128, &stats};
  std::atomic<int> live{0};
  std::atomic<bool> ran_slotless{false};
  std::atomic<Timestamp> last_draw{0};
};

/// Uses every per-thread owner from a thread_local destructor that runs
/// after the thread's slot has been handed back.
struct TeardownProbe {
  TeardownOwners* owners = nullptr;
  ~TeardownProbe() {
    if (owners == nullptr) return;
    TeardownOwners& o = *owners;
    o.ran_slotless.store(ThreadSlot() == kNoSlot);
    o.stats.Add(Stat::kReads, 5);
    o.hists.Record(obs::Hist::kReadLatency, 42);
    {
      EpochGuard guard(o.epoch);
      o.epoch.RetireObject(new CountedThing(o.live));
    }
    o.last_draw.store(o.ts.Next());
    o.pool.Release(o.pool.Acquire(2));
    o.slab.Free(o.slab.Allocate());
  }
  struct CountedThing {
    explicit CountedThing(std::atomic<int>& c) : counter(c) { ++counter; }
    ~CountedThing() { --counter; }
    std::atomic<int>& counter;
  };
};

/// The probe is constructed before the thread's first ThreadSlot() call, so
/// it is destroyed after the slot holder: every owner must take its
/// slotless fallback there and still count exactly.
TEST(ThreadSlotTest, OwnersFallBackAfterSlotTeardown) {
  TeardownOwners o;
  Timestamp body_draw = 0;
  std::thread t([&] {
    thread_local TeardownProbe probe;
    probe.owners = &o;
    ASSERT_NE(ThreadSlot(), kNoSlot);
    o.stats.Add(Stat::kReads, 5);
    o.hists.Record(obs::Hist::kReadLatency, 7);
    {
      EpochGuard guard(o.epoch);
      o.epoch.RetireObject(new TeardownProbe::CountedThing(o.live));
    }
    body_draw = o.ts.Next();
    o.pool.Release(o.pool.Acquire(1));
    o.slab.Free(o.slab.Allocate());
  });
  t.join();
  ASSERT_TRUE(o.ran_slotless.load());

  EXPECT_EQ(o.stats.Get(Stat::kReads), 10u);
  obs::HistogramData h = o.hists.Snapshot(obs::Hist::kReadLatency);
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 49u);
  EXPECT_EQ(h.max, 42u);
  EXPECT_GT(o.last_draw.load(), body_draw);
  EXPECT_EQ(o.stats.Get(Stat::kTxnPoolHits) +
                o.stats.Get(Stat::kTxnPoolMisses),
            2u);
  EXPECT_EQ(o.stats.Get(Stat::kSlabMagazineHits) +
                o.stats.Get(Stat::kSlabMagazineMisses),
            2u);
  EXPECT_EQ(o.stats.Get(Stat::kSlabSlotsRecycled), 2u);

  // The slotless guard was released: reclamation is not pinned.
  o.epoch.TryAdvanceAndReclaim();
  o.epoch.TryAdvanceAndReclaim();
  EXPECT_EQ(o.live.load(), 0);
  EXPECT_EQ(o.epoch.PendingCount(), 0u);
}

/// ---------------------------------------------------------------------------
/// Engine stress: writers churn versions while GC recycles them into the
/// slab, concurrent readers scan lock-free. If a slot were recycled before
/// its epoch is safe, a reader would observe a torn/garbage payload: every
/// row carries a checksum over its fields, verified on every read.
/// ---------------------------------------------------------------------------

struct CheckedRow {
  uint64_t key;
  uint64_t value;
  uint64_t checksum;  // key * 31 + value
  static uint64_t Checksum(uint64_t k, uint64_t v) { return k * 31 + v; }
};
uint64_t CheckedRowKey(const void* p) {
  return static_cast<const CheckedRow*>(p)->key;
}

class SlabChurnTest : public ::testing::TestWithParam<bool> {};

TEST_P(SlabChurnTest, RecycledSlotsNeverVisibleBeforeEpochSafe) {
  const bool use_slab = GetParam();
  DatabaseOptions opts;
  opts.scheme = Scheme::kMultiVersionOptimistic;
  opts.log_mode = LogMode::kDisabled;
  opts.gc_interval_us = 100;  // aggressive reclamation
  opts.use_slab_allocator = use_slab;
  Database db(opts);

  constexpr uint64_t kRows = 64;
  TableDef def;
  def.name = "churn";
  def.payload_size = sizeof(CheckedRow);
  def.indexes.push_back(IndexDef{&CheckedRowKey, kRows, true});
  TableId table = db.CreateTable(def);
  for (uint64_t k = 0; k < kRows; ++k) {
    CheckedRow row{k, 0, CheckedRow::Checksum(k, 0)};
    ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                  [&](Txn* t) {
                                    return db.Insert(t, table, &row);
                                  })
                    .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> corruptions{0};
  std::atomic<uint64_t> updates{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      Random rng(0xBEEF + w);
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t key = rng.Uniform(kRows);
        Status s = db.RunTransaction(
            IsolationLevel::kReadCommitted, [&](Txn* t) {
              return db.Update(t, table, 0, key, [&](void* p) {
                auto* row = static_cast<CheckedRow*>(p);
                row->value += 1;
                row->checksum = CheckedRow::Checksum(row->key, row->value);
              });
            });
        if (s.ok()) updates.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&, r] {
      Random rng(0xF00D + r);
      CheckedRow out;
      while (!stop.load(std::memory_order_relaxed)) {
        uint64_t key = rng.Uniform(kRows);
        Status s = db.RunTransaction(
            IsolationLevel::kReadCommitted, [&](Txn* t) {
              return db.Read(t, table, 0, key, &out);
            });
        if (s.ok()) {
          if (out.checksum != CheckedRow::Checksum(out.key, out.value) ||
              out.key != key) {
            corruptions.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  stop.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  EXPECT_EQ(corruptions.load(), 0u);
  EXPECT_GT(updates.load(), 0u);

  StatsCollector& stats = db.stats();
  EXPECT_GT(stats.Get(Stat::kVersionsCollected), 0u);
  if (use_slab) {
    // Drain GC + epochs so the reclaimed versions actually reached Free()
    // and the local tallies flushed, then confirm slots recycled into the
    // slab rather than the heap.
    db.mv_engine()->gc().RunOnce();
    db.mv_engine()->epoch().TryAdvanceAndReclaim();
    EXPECT_GT(stats.Get(Stat::kSlabChunksAllocated), 0u);
    Table& t = db.mv_engine()->table(table);
    ASSERT_NE(t.slab(), nullptr);
  } else {
    EXPECT_EQ(stats.Get(Stat::kSlabChunksAllocated), 0u);
    EXPECT_EQ(db.mv_engine()->table(table).slab(), nullptr);
  }

  // Final integrity sweep: every row readable and checksum-consistent.
  for (uint64_t k = 0; k < kRows; ++k) {
    CheckedRow out;
    ASSERT_TRUE(db.RunTransaction(IsolationLevel::kReadCommitted,
                                  [&](Txn* t) {
                                    return db.Read(t, table, 0, k, &out);
                                  })
                    .ok());
    EXPECT_EQ(out.key, k);
    EXPECT_EQ(out.checksum, CheckedRow::Checksum(out.key, out.value));
  }
}

INSTANTIATE_TEST_SUITE_P(SlabAndHeap, SlabChurnTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "slab" : "heap";
                         });

/// Transaction pool: recycled MV transaction objects must behave like fresh
/// ones across the whole lifecycle (the pool reuses them after epoch
/// reclamation, so a long run cycles each object many times).
TEST(TxnPoolTest, RecycledTransactionsAreClean) {
  MVEngineOptions opts;
  opts.log_mode = LogMode::kDisabled;
  opts.gc_interval_us = 0;
  opts.deadlock_interval_us = 0;
  opts.use_slab_allocator = true;
  MVEngine engine(opts);

  TableDef def;
  def.name = "t";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 64, true});
  TableId table = engine.CreateTable(def);

  for (int i = 0; i < 2000; ++i) {
    Transaction* txn = engine.Begin(IsolationLevel::kSerializable, false);
    EXPECT_EQ(txn->state.load(), TxnState::kActive);
    EXPECT_TRUE(txn->read_set.empty());
    EXPECT_TRUE(txn->write_set.empty());
    EXPECT_TRUE(txn->scan_set.empty());
    EXPECT_FALSE(txn->abort_now.load());
    Row row{static_cast<uint64_t>(i % 8), 1, 2};
    if (i % 8 == 0) {
      // Mix in aborts so both release paths recycle.
      engine.Insert(txn, table, &row);
      engine.Abort(txn);
    } else {
      Status s = engine.Update(txn, table, 0, row.key, [](void* p) {
        static_cast<Row*>(p)->a += 1;
      });
      if (s.ok() || s.IsNotFound()) {
        if (s.IsNotFound()) engine.Insert(txn, table, &row);
        engine.Commit(txn);
      }
    }
    // Recycling requires epochs to pass; nudge the manager.
    if (i % 64 == 0) engine.epoch().TryAdvanceAndReclaim();
  }
  EXPECT_GT(engine.stats().Get(Stat::kTxnPoolHits), 0u);
}

}  // namespace
}  // namespace mvstore
