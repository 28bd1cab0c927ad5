// Thread-scaling regression harness (ctest label `perf`, Release CI leg).
//
// The fig5 regression this guards against: before the Section-6 hot-path
// work, MV/O and MV/L throughput *dropped* from 1 to 4 threads (to ~0.73x)
// because every transaction serialized on a handful of global cachelines
// -- the stat counters, the epoch manager, the transaction-table
// partitions -- besides the one the paper allows, the timestamp counter
// (a single fetch_add per commit). This test reruns that experiment small:
// the homogeneous R=10/W=2 update workload on the fig5 hotspot table
// (N=1,000 rows, the high-contention configuration the regression showed
// up in) at 1 and at 4 threads, and fails if 4 threads fall materially
// below 1 thread again.
//
// The margin is deliberately generous (0.8x): CI boxes are noisy and often
// oversubscribed, and the point is to catch a *serialization collapse*,
// not to enforce a speedup. The pre-fix ratio (~0.73x) still fails it.
// Against box-level noise (shared runners slow down for whole minutes at a
// time), the two thread counts are measured in alternation and compared by
// median -- a slow phase then lands on both sides instead of on whichever
// point happened to run during it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "bench/harness.h"
#include "common/random.h"
#include "workload/homogeneous.h"

namespace mvstore {
namespace {

constexpr uint64_t kRows = 1000;
constexpr double kSecondsPerPoint = 1.0;
constexpr double kGenerousMargin = 0.8;
// Margin when forced onto a box with fewer than 4 hardware threads. There
// the 4-thread run pays an unavoidable timeslicing tax the engine cannot
// remove: a worker preempted inside its commit pipeline stalls its peers
// for a scheduler quantum. Measured on a 1-CPU container, that tax alone
// puts the ratio at ~0.75-0.85 (a read-only workload on the same box runs
// ~0.95), which a 0.8 threshold cannot tell apart from the pre-fix
// serialization collapse. A shared-core run therefore only smoke-checks
// for catastrophic collapse; the discriminating 0.8 contract applies
// where 4 hardware threads exist.
constexpr double kSharedCoreMargin = 0.5;
constexpr int kRepeats = 3;

double UpdateWorkloadTps(Database& db, TableId table, uint32_t threads) {
  bench::RunResult r = bench::RunFixedDuration(
      threads, kSecondsPerPoint,
      [&](uint32_t tid, std::atomic<bool>& stop,
          bench::WorkerCounters& counters) {
        Random rng(0xC0FFEE + tid);
        while (!stop.load(std::memory_order_relaxed)) {
          Status s = workload::RunUpdateTxn(db, table, rng, kRows, 10, 2,
                                            IsolationLevel::kReadCommitted);
          if (s.ok()) {
            ++counters.committed;
          } else {
            ++counters.aborted;
          }
        }
      });
  return r.tps();
}

void ExpectScalesToFourThreads(Scheme scheme) {
  // MVSTORE_PERF_FORCE runs the measurement even on a small box, with the
  // relaxed shared-core margin (see kSharedCoreMargin).
  const bool small_box = std::thread::hardware_concurrency() < 4;
  if (small_box && std::getenv("MVSTORE_PERF_FORCE") == nullptr) {
    GTEST_SKIP() << "needs >= 4 hardware threads";
  }
  const double margin = small_box ? kSharedCoreMargin : kGenerousMargin;
  bench::Flags flags(0, nullptr);
  DatabaseOptions opts = bench::MakeOptions(scheme, flags);
  Database db(opts);
  TableId table = workload::CreateAndLoadRows(db, kRows);

  // Throwaway point to warm the table, the allocator slabs, and the
  // per-thread slots before either measured point.
  (void)UpdateWorkloadTps(db, table, 2);

  double runs1[kRepeats], runs4[kRepeats];
  for (int rep = 0; rep < kRepeats; ++rep) {
    runs1[rep] = UpdateWorkloadTps(db, table, 1);
    runs4[rep] = UpdateWorkloadTps(db, table, 4);
  }
  std::sort(runs1, runs1 + kRepeats);
  std::sort(runs4, runs4 + kRepeats);
  double tps1 = runs1[kRepeats / 2];
  double tps4 = runs4[kRepeats / 2];
  testing::Test::RecordProperty("tps_1_thread", static_cast<int64_t>(tps1));
  testing::Test::RecordProperty("tps_4_threads", static_cast<int64_t>(tps4));
  EXPECT_GE(tps4, margin * tps1)
      << SchemeName(scheme) << " throughput collapsed under concurrency: "
      << tps1 << " tps at 1 thread vs " << tps4 << " tps at 4 threads";
}

TEST(ScalabilitySmokeTest, MultiVersionOptimistic) {
  ExpectScalesToFourThreads(Scheme::kMultiVersionOptimistic);
}

TEST(ScalabilitySmokeTest, MultiVersionLocking) {
  ExpectScalesToFourThreads(Scheme::kMultiVersionLocking);
}

}  // namespace
}  // namespace mvstore
