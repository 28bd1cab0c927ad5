// Version-allocation microbenchmark: slab recycling vs the global heap.
//
// Models the update hot path's memory traffic in isolation: every update
// transaction allocates a version (Table::AllocateVersion) and retires an
// old one. Each worker keeps a ring of live versions and, per operation,
// frees the oldest and allocates a fresh one -- FIFO churn, the pattern GC
// produces, and the one that defeats a malloc's LIFO fast caches.
//
//   --mode slab|heap|both   allocator under test (default both)
//   --live N                live versions per worker (default 256)
//   --seconds / --threads / --json as usual (bench/harness.h)
#include <memory>

#include "bench/harness.h"
#include "common/counters.h"
#include "storage/table.h"

using namespace mvstore;
using namespace mvstore::bench;

namespace {

struct Row {
  uint64_t key;
  uint64_t value;
  uint64_t pad;
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }

std::unique_ptr<Table> MakeTable(bool use_slab, StatsCollector* stats) {
  TableDef def;
  def.name = "alloc";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, 64, true});
  return std::make_unique<Table>(0, std::move(def),
                                 TableMemoryOptions{use_slab, stats});
}

/// FIFO churn: allocations per second with `live` versions outstanding.
double RunChurn(Table& table, uint32_t threads, double seconds,
                uint32_t live) {
  RunResult r = RunFixedDuration(
      threads, seconds,
      [&](uint32_t tid, std::atomic<bool>& stop, WorkerCounters& c) {
        Row row{tid, 0, 0};
        std::vector<Version*> ring(live, nullptr);
        uint32_t cursor = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          if (ring[cursor] != nullptr) {
            table.FreeUnpublishedVersion(ring[cursor]);
          }
          row.value = c.committed;
          ring[cursor] = table.AllocateVersion(&row);
          cursor = (cursor + 1) % live;
          ++c.committed;
        }
        for (Version* v : ring) {
          if (v != nullptr) table.FreeUnpublishedVersion(v);
        }
      });
  return r.tps();
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, {"seconds", "threads", "live", "mode", "json"});
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  const uint32_t live = static_cast<uint32_t>(flags.GetUint("live", 256));
  const std::string mode = flags.GetString("mode", "both");
  JsonReporter json(flags, BenchSlug(argv[0]));

  std::printf("# alloc_bench: version churn, %u live versions/worker, "
              "%.2fs/point\n",
              live, seconds);
  std::printf("%-8s %14s %14s   (allocations/sec)\n", "threads", "heap",
              "slab");

  for (uint32_t threads : ThreadSweep(max_threads)) {
    std::printf("%-8u", threads);
    for (bool use_slab : {false, true}) {
      const char* label = use_slab ? "slab" : "heap";
      if (mode != "both" && mode != label) {
        std::printf("%14s", "-");
        continue;
      }
      StatsCollector stats;
      auto table = MakeTable(use_slab, &stats);
      double tps = RunChurn(*table, threads, seconds, live);
      std::printf("%14.0f", tps);
      json.AddRow(label, threads, tps, 0);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
