// Ablation E10: cost of individual design choices called out in DESIGN.md.
//
//   * honor_locks on/off        -- what coexistence costs a pure-MV/O run
//   * logging disabled/async/sync -- what group commit buys
//   * GC on/off                 -- what version cleanup costs (and what
//                                  unbounded chains would do instead)
//   * slab allocator on/off     -- what src/mem/ recycling buys the hot path
// Homogeneous R=10/W=2 workload at a fixed multiprogramming level.
#include "bench/harness.h"
#include "common/random.h"
#include "workload/homogeneous.h"

using namespace mvstore;
using namespace mvstore::bench;

namespace {

RunResult Measure(const DatabaseOptions& opts, uint64_t rows,
                  uint32_t threads, double seconds) {
  Database db(opts);
  TableId table = workload::CreateAndLoadRows(db, rows);
  RunResult r = RunFixedDuration(
      threads, seconds,
      [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& c) {
        Random rng(0xAB1 + tid);
        while (!stop.load(std::memory_order_relaxed)) {
          Status s = workload::RunUpdateTxn(db, table, rng, rows, 10, 2,
                                            IsolationLevel::kReadCommitted);
          if (s.ok()) {
            ++c.committed;
          } else {
            ++c.aborted;
          }
        }
      });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"rows", "seconds", "threads", "group", "json"});
  const uint64_t rows = flags.GetUint("rows", 100000);
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));

  std::printf("# Ablations: MV/O, R=10 W=2, N=%llu, MPL=%u\n",
              static_cast<unsigned long long>(rows), threads);
  std::printf("%-40s %16s\n", "configuration", "tx/sec");
  JsonReporter json(flags, BenchSlug(argv[0]));
  auto report = [&](const char* name, const char* tag,
                    const DatabaseOptions& opts) {
    RunResult r = Measure(opts, rows, threads, seconds);
    std::printf("%-40s %16.0f\n", name, r.tps());
    json.AddRow(tag, threads, r.tps(), r.aborted);
  };

  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionOptimistic, flags);
    report("baseline (honor_locks, async log, gc)", "baseline", opts);
  }
  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionOptimistic, flags);
    opts.honor_locks = false;
    report("pure MV/O (no lock honoring barrier)", "no_honor_locks", opts);
  }
  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionOptimistic, flags);
    opts.log_mode = LogMode::kDisabled;
    report("logging disabled", "no_log", opts);
  }
  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionOptimistic, flags);
    opts.log_mode = LogMode::kSync;
    report("synchronous logging (durable commit)", "sync_log", opts);
  }
  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionOptimistic, flags);
    opts.gc_interval_us = 0;  // cooperative only
    report("no background GC (cooperative only)", "no_bg_gc", opts);
  }
  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionOptimistic, flags);
    opts.use_slab_allocator = false;
    report("heap allocator (memory subsystem off)", "heap_alloc", opts);
  }
  {
    DatabaseOptions opts = MakeOptions(Scheme::kMultiVersionLocking, flags);
    opts.deadlock_interval_us = 100;
    report("MV/L with aggressive deadlock detection", "mvl_fast_deadlock",
           opts);
  }
  return 0;
}
