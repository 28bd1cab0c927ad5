// Range-scan benchmark over the ordered secondary index (no paper exhibit:
// the paper's engines index through hash buckets only, so this measures the
// new access path that opens the reporting/ordered-read workload class).
//
// Workload: N rows keyed 0..N-1 with an ordered secondary index on the same
// key space. Each worker repeatedly scans a random [lo, lo+range) interval
// at Snapshot isolation (1V: Repeatable Read — its closest consistent-read
// mode) while a fixed share of workers runs single-row updates, so MV scans
// traverse real version chains and 1V scans contend on key locks.
//
// Axes: range size (--range R, or the default {10, 100, 1000} sweep) ×
// multiprogramming level × scheme. Rows report scans/second; the update
// class rides along in committed_class2.
//
//   --range R      single range size instead of the sweep
//   --update_pct P percent of workers running updates (default 25)
// plus the common harness flags (--seconds --rows --threads --scheme
// --slab --json --full). JSON rows follow the harness shape, with the
// range size folded into the scheme label ("MV/O/r100").
#include "bench/harness.h"
#include "common/random.h"

namespace mvstore {
namespace bench {
namespace {

struct Row {
  uint64_t key;
  uint64_t ordered_key;
  uint64_t value;
  char padding[24];  // paper-style ~48B payload
};
uint64_t RowKey(const void* p) { return static_cast<const Row*>(p)->key; }
uint64_t RowOrderedKey(const void* p) {
  return static_cast<const Row*>(p)->ordered_key;
}

TableId CreateAndLoad(Database& db, uint64_t rows) {
  TableDef def;
  def.name = "scan_rows";
  def.payload_size = sizeof(Row);
  def.indexes.push_back(IndexDef{&RowKey, rows, /*unique=*/true});
  IndexDef ordered{&RowOrderedKey, rows, /*unique=*/false};
  ordered.ordered = true;
  def.indexes.push_back(ordered);
  TableId table = db.CreateTable(def);
  for (uint64_t k = 0; k < rows; ++k) {
    Row row{};
    row.key = k;
    row.ordered_key = k;
    row.value = k;
    Status s = db.RunTransaction(
        IsolationLevel::kReadCommitted,
        [&](Txn* t) { return db.Insert(t, table, &row); });
    if (!s.ok()) {
      std::fprintf(stderr, "load failed at row %llu\n",
                   static_cast<unsigned long long>(k));
      std::exit(1);
    }
  }
  return table;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv, {"rows", "full", "seconds", "threads", "update_pct",
                           "range", "scheme", "group", "json"});
  const uint64_t rows =
      flags.GetUint("rows", flags.Has("full") ? 10000000 : 100000);
  const double seconds = flags.GetDouble("seconds", 0.5);
  const uint32_t max_threads =
      static_cast<uint32_t>(flags.GetUint("threads", DefaultMaxThreads()));
  const uint32_t update_pct =
      static_cast<uint32_t>(flags.GetUint("update_pct", 25));
  JsonReporter json(flags, BenchSlug(argv[0]));

  std::vector<uint64_t> ranges;
  if (flags.Has("range")) {
    ranges.push_back(flags.GetUint("range", 100));
  } else {
    ranges = {10, 100, 1000};
  }

  std::printf("# scan_bench: ordered-index range scans, N=%llu rows, "
              "%u%% update workers, Snapshot/RR, %.2fs/point\n",
              static_cast<unsigned long long>(rows), update_pct, seconds);

  std::vector<Scheme> schemes = SchemesToRun(flags);
  std::vector<std::unique_ptr<Database>> dbs;
  std::vector<TableId> tables;
  std::vector<std::string> labels;
  for (Scheme s : schemes) {
    DatabaseOptions opts = MakeOptions(s, flags);
    labels.push_back(SchemeName(s));
    dbs.push_back(std::make_unique<Database>(opts));
    tables.push_back(CreateAndLoad(*dbs.back(), rows));
  }

  std::vector<uint32_t> sweep = ThreadSweep(max_threads);
  for (uint64_t range : ranges) {
    std::printf("\n## range=%llu (scans/sec; updates/sec in parens)\n",
                static_cast<unsigned long long>(range));
    std::printf("%-8s", "threads");
    for (const std::string& label : labels) {
      std::printf("%22s", label.c_str());
    }
    std::printf("\n");
    for (uint32_t threads : sweep) {
      std::printf("%-8u", threads);
      for (size_t i = 0; i < schemes.size(); ++i) {
        Database& db = *dbs[i];
        TableId table = tables[i];
        // 1V has no snapshots; RR is its consistent-read mode.
        const IsolationLevel scan_iso =
            schemes[i] == Scheme::kSingleVersion
                ? IsolationLevel::kRepeatableRead
                : IsolationLevel::kSnapshot;
        RunResult r = RunFixedDuration(
            threads, seconds,
            [&](uint32_t tid, std::atomic<bool>& stop,
                WorkerCounters& counters) {
              Random rng(0x5CA9 + tid * 7919);
              const bool updater =
                  threads > 1 && (tid * 100 / threads) < update_pct;
              while (!stop.load(std::memory_order_relaxed)) {
                if (updater) {
                  uint64_t key = rng.Uniform(rows);
                  Status s = db.RunTransaction(
                      IsolationLevel::kReadCommitted,
                      [&](Txn* t) {
                        return db.Update(t, table, 0, key, [](void* p) {
                          static_cast<Row*>(p)->value += 1;
                        });
                      },
                      /*max_retries=*/10);
                  if (s.ok()) {
                    ++counters.committed_class2;
                  } else {
                    ++counters.aborted;
                  }
                  continue;
                }
                uint64_t lo = rng.Uniform(rows > range ? rows - range : 1);
                uint64_t visited = 0;
                Status s = db.RunTransaction(
                    scan_iso,
                    [&](Txn* t) {
                      visited = 0;
                      return db.ScanRange(t, table, 1, lo, lo + range - 1,
                                          nullptr, [&](const void*) {
                                            ++visited;
                                            return true;
                                          });
                    },
                    /*max_retries=*/10);
                if (s.ok()) {
                  ++counters.committed;
                } else {
                  ++counters.aborted;
                }
              }
            });
        std::printf("%14.0f (%5.0f)", r.tps(), r.tps_class2());
        json.AddRow(labels[i] + "/r" + std::to_string(range), threads,
                    r.tps(), r.aborted);
      }
      std::printf("\n");
      std::fflush(stdout);
    }
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace mvstore

int main(int argc, char** argv) { return mvstore::bench::Run(argc, argv); }
